"""Radial-tree network model with path/precedence algebra.

Nodes are dense integers 0..N with 0 the substation; every per-node quantity
is stored in a length-(N+1) array indexed by node id, and every per-edge
quantity is keyed by the downstream node of the edge. All electrical values
are per-unit. W and C are the file's default weights, read only through
``CostParams.from_network`` and ``CostParams.from_ratio``.

Some constants the solvers derive from a network alone are kept on it,
built on first use through ``Network.derived`` and read-only: the uniform
r/x ratio, the symmetry answer and the load-control model (LP rows,
objective, bounds, per load scale) per bytes of the solve's weights, the exact
engines' no-attack voltages at their seed set-points per load scale, the
power-flow sweep's edge terms z, conj(z) and |z|^2, and the one-shot
engine's impact ranking and the pivot families of a row that secures
nothing, per budget. None stands in for an impact matrix, a power flow or
an LP, so a solve on a used network makes those calls as often as on a
fresh one and saves only the work beside them. Nothing is built with the network, and a
copy made with ``dataclasses.replace`` (``with_gamma_lo``, for one) starts
empty. What reads an attack or a response is built per solve.
"""

from __future__ import annotations

import enum
import numbers
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

from .errors import (
    BoundOrderingViolated,
    CycleDetected,
    DisconnectedNode,
    InvalidNetwork,
    NonPositiveImpedance,
    RootArgument,
)

NodeId = int
T = TypeVar("T")

_RX_RTOL = 1e-9


@dataclass(frozen=True)
class NodeSpec:
    """One row of a parsed network description (all values per-unit)."""

    id: int
    parent: int | None
    r_pu: float = 0.0
    x_pu: float = 0.0
    pc_nom: float = 0.0
    qc_nom: float = 0.0
    der_cap: float = 0.0
    nu_lo: float = 0.9025
    nu_hi: float = 1.1025
    W: float = 70000.0
    C: float = 7000.0
    gamma_lo: float = 0.5
    label: str | None = None


@dataclass(frozen=True)
class TreeIndex:
    """Derived tree structure, computed once at build time.

    ``paths[i]`` is the root-to-i node sequence excluding the root;
    ``subtree_mask[j, k]`` is 1.0 iff k lies in the subtree rooted at j, so
    ``subtree_mask @ s`` accumulates net loads into downstream edge flows, and
    its transpose is the path-membership matrix.
    """

    parent: np.ndarray            # (N+1,) int, parent[0] == -1
    depth: np.ndarray             # (N+1,) int, depth[0] == 0
    height: int
    order: np.ndarray             # (N+1,) BFS order, root first
    children: tuple[tuple[int, ...], ...]
    paths: tuple[tuple[int, ...], ...]
    subtree_mask: np.ndarray      # (N+1, N+1) float
    shared_depth: np.ndarray      # (N+1, N+1) int, |P_i ∩ P_j|

    def level(self, h: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.depth == h)]

    def subtree(self, i: int) -> list[int]:
        return [int(k) for k in np.flatnonzero(self.subtree_mask[i])]


class Precedence(enum.Enum):
    """Relative ordering of two nodes with respect to a pivot node."""

    J_PRECEDES_K = "j precedes k"
    K_PRECEDES_J = "k precedes j"
    EQUAL = "equal"


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable radial distribution network (per-unit).

    Arrays are length N+1 and indexed by node id; edge quantities (r, x, z)
    are keyed by the downstream node, with index 0 unused.
    """

    n: int                        # number of non-substation nodes
    r: np.ndarray
    x: np.ndarray
    sc_nom: np.ndarray            # complex nominal demand
    der_cap: np.ndarray
    nu0: float
    nu_lo: np.ndarray
    nu_hi: np.ndarray
    mu_lo: float
    mu_hi: float
    W: np.ndarray
    C: np.ndarray
    gamma_lo: np.ndarray
    labels: tuple[str, ...]
    tree: TreeIndex = field(repr=False)
    Z: np.ndarray = field(repr=False)   # (N+1, N+1) complex common-path impedance
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The network constant ``key``: ``build()`` on first use, then the
        value kept from it (the power-flow sweep's z, conj(z) and |z|^2
        among them). ``build`` must read nothing but this network and
        what ``key`` names, by value (a load scale, the bytes of a weight
        array; never an ``id()``, which a later object can reuse), since every
        later call gets its value; the arrays in it, alone or in a tuple, are
        made read-only, and any other object in it must not change after
        ``build``, since threads share it. A copy made with
        ``dataclasses.replace`` starts with none kept."""
        try:
            return self._derived[key]
        except KeyError:
            value = build()
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                part.setflags(write=False)
        # two threads may build the same key; both keep the first value
        return self._derived.setdefault(key, value)

    @property
    def z(self) -> np.ndarray:
        return self.r + 1j * self.x

    @property
    def nodes(self) -> range:
        """All non-substation node ids."""
        return range(1, self.n + 1)

    @property
    def der_nodes(self) -> np.ndarray:
        return (self.der_cap > 0.0).nonzero()[0]

    def uniform_rx_ratio(self) -> float | None:
        """The common r/x ratio K, or None if the ratios differ by more than
        1e-9 relative."""
        return self.derived("uniform_rx_ratio", self._uniform_rx_ratio)

    def _uniform_rx_ratio(self) -> float | None:
        k = self.r[1:] / self.x[1:]
        k0 = float(k[0])
        if np.all(np.abs(k - k0) <= _RX_RTOL * max(1.0, abs(k0))):
            return k0
        return None

    def label_of(self, i: int) -> str:
        return self.labels[i]

    def node_by_label(self, label: str) -> int:
        return self.labels.index(label)


def _build_tree_index(parent: np.ndarray) -> tuple[TreeIndex, np.ndarray]:
    """The tree index of a checked ``parent`` array, and its root-path matrix."""
    n_total = parent.shape[0]
    children: list[list[int]] = [[] for _ in range(n_total)]
    for i in range(1, n_total):
        children[int(parent[i])].append(i)

    # one BFS walk: a node's root path is its parent's plus itself, as the tuple
    # paths[i] and as row i of path_mask (1 at every node of it but the substation)
    depth = np.full(n_total, -1, dtype=int)
    depth[0] = 0
    paths: list[tuple[int, ...]] = [()] * n_total
    path_mask = np.zeros((n_total, n_total))
    order = [0]
    for node in order:
        for c in children[node]:
            depth[c] = depth[node] + 1
            paths[c] = paths[node] + (c,)
            path_mask[c] = path_mask[node]
            path_mask[c, c] = 1.0
            order.append(c)
    if len(order) < n_total:
        # every parent is a node id, so a node the walk missed leads into a cycle
        k, seen = int((depth < 0).nonzero()[0][0]), set()
        while k not in seen:
            seen.add(k)
            k = int(parent[k])
        raise CycleDetected(f"nodes {sorted(seen)} form a parent cycle")

    subtree_mask = path_mask.T.copy()
    subtree_mask[0] = 1.0

    return TreeIndex(
        parent=parent,
        depth=depth,
        height=int(depth.max()) if n_total > 1 else 0,
        order=np.array(order, dtype=int),
        children=tuple(tuple(c) for c in children),
        paths=tuple(paths),
        subtree_mask=subtree_mask,
        shared_depth=(path_mask @ path_mask.T).astype(int),
    ), path_mask


def build_network(
    nodes: list[NodeSpec],
    *,
    nu0: float = 1.0,
    mu_lo: float = 0.8,
    mu_hi: float = 1.21,
) -> Network:
    """Validate a parsed description and assemble the immutable Network.

    Raises CycleDetected / DisconnectedNode / NonPositiveImpedance /
    BoundOrderingViolated on the corresponding invariant failures, and
    InvalidNetwork on any other bad row, such as a substation (node 0) with
    a line, demand or DER.
    """
    if len(nodes) < 2:
        raise InvalidNetwork("a network needs the substation and at least one node")
    ids = [spec.id for spec in nodes]
    if len(set(ids)) != len(ids):
        raise InvalidNetwork("duplicate node ids in description")
    if sorted(ids) != list(range(len(ids))):
        raise InvalidNetwork("node ids must be dense integers 0..N")
    roots = [spec for spec in nodes if spec.parent is None]
    if len(roots) != 1 or roots[0].id != 0:
        raise InvalidNetwork("exactly node 0 must have a null parent")
    root = roots[0]
    # the model has no edge into the substation, no demand and no DER there
    if any(v != 0.0 for v in (root.r_pu, root.x_pu, root.pc_nom, root.qc_nom, root.der_cap)):
        raise InvalidNetwork("the substation (node 0) needs zero r_pu, x_pu, pc_nom, qc_nom and der_cap")

    n_total = len(nodes)
    by_id = sorted(nodes, key=lambda s: s.id)
    parent = np.full(n_total, -1, dtype=int)
    for spec in by_id[1:]:
        if spec.parent is None or not (0 <= spec.parent < n_total):
            raise DisconnectedNode(f"node {spec.id} references unknown parent {spec.parent}")
        if spec.parent == spec.id:
            raise CycleDetected(f"node {spec.id} is its own parent")
        parent[spec.id] = spec.parent

    tree, path_mask = _build_tree_index(parent)

    r = np.array([s.r_pu for s in by_id])
    x = np.array([s.x_pu for s in by_id])
    sc_nom = np.array([complex(s.pc_nom, s.qc_nom) for s in by_id])
    der_cap = np.array([s.der_cap for s in by_id])
    # a NaN passes the impedance test below, an inf the capability test
    if not all(np.isfinite(v).all() for v in (r, x, sc_nom, der_cap, nu0)):
        raise InvalidNetwork("r_pu, x_pu, pc_nom, qc_nom, der_cap and nu0 must be finite")
    if np.any(r[1:] <= 0.0) or np.any(x[1:] <= 0.0):
        bad = [i for i in range(1, n_total) if r[i] <= 0 or x[i] <= 0]
        raise NonPositiveImpedance(f"edges into nodes {bad} need r > 0 and x > 0")

    nu_lo = np.array([s.nu_lo for s in by_id])
    nu_hi = np.array([s.nu_hi for s in by_id])
    if not (0.0 < mu_lo < nu_lo[1:].min() <= nu_hi[1:].max() < mu_hi):
        raise BoundOrderingViolated(
            f"need 0 < mu_lo < min nu_lo <= max nu_hi < mu_hi, got "
            f"mu_lo={mu_lo}, min nu_lo={nu_lo[1:].min()}, "
            f"max nu_hi={nu_hi[1:].max()}, mu_hi={mu_hi}"
        )

    # the range checks below are written so that a NaN fails
    gamma_lo = np.array([s.gamma_lo for s in by_id])
    if not np.all((gamma_lo >= 0.0) & (gamma_lo <= 1.0)):
        raise InvalidNetwork("gamma_lo must lie in [0, 1]")
    W = np.array([s.W for s in by_id])
    C = np.array([s.C for s in by_id])
    if not (np.all(W >= 0.0) and np.all(C >= 0.0)):
        raise InvalidNetwork("W and C must be nonnegative")
    if not np.all(der_cap >= 0.0):
        raise InvalidNetwork("der_cap must be nonnegative")

    labels = tuple(s.label if s.label is not None else str(s.id) for s in by_id)

    Z = (path_mask * (r + 1j * x)) @ path_mask.T

    for arr in (parent, r, x, sc_nom, der_cap, nu_lo, nu_hi, W, C, gamma_lo, Z):
        arr.setflags(write=False)
    tree.subtree_mask.setflags(write=False)
    tree.shared_depth.setflags(write=False)

    return Network(
        n=n_total - 1,
        r=r,
        x=x,
        sc_nom=sc_nom,
        der_cap=der_cap,
        nu0=nu0,
        nu_lo=nu_lo,
        nu_hi=nu_hi,
        mu_lo=mu_lo,
        mu_hi=mu_hi,
        W=W,
        C=C,
        gamma_lo=gamma_lo,
        labels=labels,
        tree=tree,
        Z=Z,
    )


def common_path_impedance(net: Network, i: NodeId, j: NodeId) -> complex:
    """Z_ij: impedance summed over the edges shared by the root paths of i and j."""
    if i == 0 or j == 0:
        raise RootArgument("common path impedance is defined for non-substation nodes")
    return complex(net.Z[i, j])


def precedence_compare(net: Network, pivot: NodeId, j: NodeId, k: NodeId) -> Precedence:
    """Classify j vs k by nestedness of their shared root-paths with the pivot.

    On a tree the intersections P_pivot ∩ P_j and P_pivot ∩ P_k are both
    prefixes of P_pivot, so comparing their lengths is exhaustive.
    """
    if pivot == 0 or j == 0 or k == 0:
        raise RootArgument("precedence is defined for non-substation nodes")
    dj = int(net.tree.shared_depth[pivot, j])
    dk = int(net.tree.shared_depth[pivot, k])
    if dj < dk:
        return Precedence.J_PRECEDES_K
    if dk < dj:
        return Precedence.K_PRECEDES_J
    return Precedence.EQUAL


def check_budget(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"budget {name} must be a non-negative integer, got {value!r}")


def check_vectors(net: Network, v, name: str, rows: bool = False) -> np.ndarray:
    """``v`` as int 0/1 vectors over nodes 0..N, None being the zero vector:
    one vector, or with ``rows`` one or more rows of them (a vector is one
    row). Raises ValueError on any other shape or value."""
    a = np.zeros(net.n + 1, dtype=int) if v is None else np.asarray(v)
    if rows and a.ndim == 1:
        a = a[None]
    if a.ndim != 1 + rows or a.shape[-1] != net.n + 1 or not a.size or not ((a == 0) | (a == 1)).all():
        what = "a 0/1 vector or rows of them" if rows else "one 0/1 vector"
        raise ValueError(f"{name} must be {what} over nodes 0..{net.n}")
    return np.asarray(a, dtype=int)
