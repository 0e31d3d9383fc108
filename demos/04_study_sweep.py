"""Budget sweep on the 36-node feeder, reproducing the study behaviors.

Sweeps the attacker budget for three weight ratios: at the low ratio the
defender never sheds load and the regulation loss grows with shrinking
increments; at the high ratios shedding zeroes the regulation loss while
the lost-load cost climbs until the control resource saturates.
"""

from dersec import homogeneous37
from dersec.netio import sweep_rows_to_csv
from dersec.sweep import SweepConfig, run_sweep

net = homogeneous37()
cfg = SweepConfig(
    M_values=tuple(range(0, 15, 2)),
    wc_ratios=(2.0, 10.0, 18.0),
    gamma_lo_values=(0.5,),
    model="lpf",
)
rows = run_sweep(net, cfg)

print(f"{'M':>3} {'W/C':>5} {'lovr':>10} {'voll':>10} {'total':>10} {'attack':>16}")
for r in rows:
    attacked = [str(i + 1) for i, c in enumerate(r.delta_star) if c == "1"]
    label = ",".join(attacked[:4]) + ("..." if len(attacked) > 4 else "")
    print(f"{r.M:>3} {r.wc_ratio:>5.0f} {r.lovr:>10.3f} {r.voll:>10.3f} "
          f"{r.total:>10.3f} {label:>16}")

out = "sweep_rows.csv"
with open(out, "w", encoding="utf-8") as fh:
    fh.write(sweep_rows_to_csv(rows))
print(f"\nwrote {out} ({len(rows)} rows)")
