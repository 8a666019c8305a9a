"""Multi-Starter BFS — the paper's Algorithm 3 — plus the classic fallback.

Given the minimal bonding cores of an ex-core, DISC must decide whether they
are density-connected in the *current* core graph (vertices = current cores,
edges = epsilon-neighbour pairs), where the graph is never materialised:
every expansion is a range search against the spatial index.

:func:`check_connectivity` implements both strategies behind one interface:

- ``multi_starter=True`` (MS-BFS): the seeds are first partitioned by the
  *seed-only* epsilon graph (:func:`_seed_components`, vectorised over the
  seeds' coordinates, no range search), and one BFS per part is advanced
  round-robin. When two searches meet they merge queues and continue as one.
  The check stops as soon as a single search remains — when the partition
  already leaves one part (the common no-split case) that is before the
  first range search, otherwise usually long before the cluster is
  exhausted.
- ``multi_starter=False`` (classic): one BFS at a time, run to exhaustion of
  its component before the next unreached seed starts. This is what a
  straightforward IncDBSCAN-style implementation does and is the "neither /
  epoch-only" arm of the paper's Figure 8 ablation.

Epoch-based probing (``epoch_probing=True``) is orthogonal: expansions use
:meth:`ball_unvisited_pids` with the current tick, so regions already
covered are pruned inside the index. Marking discipline (see
``repro.index.rtree``): non-core points are marked when first returned (they
are never expanded); core vertices are marked only when *expanded*, so
converging searches still see each other's frontier cores and can merge.

The seed partition is exact (DESIGN.md §3.2) under three rules: only live
current cores are merged (a deleted or non-core seed stays a singleton, as it
is no vertex of the core graph); the classic arm keeps one group per seed;
and a pair is merged only when it is *strictly* inside epsilon with room for
every backend's rounding, so no merge claims an edge an index would not
report. A pair the partition misses is found by the BFS as before.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.common.disjointset import DisjointSet
from repro.core.state import WindowState
from repro.core.store import DELETED


#: Largest (frontier x unvisited) distance block the seed partition builds
#: at once, so a many-seed check never materialises a k-by-k matrix.
_SEED_PAIR_BUDGET = 1 << 16

#: Unit roundoff of float64.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _seed_components(store, seeds: list[int], eps: float, tau: int) -> list[list[int]]:
    """Partition ``seeds`` by the epsilon graph among the live-core seeds.

    Runs a frontier BFS over the seeds' coordinates — one numpy block per BFS
    level and component, never a range search. Seeds that are deleted or not
    currently core stay singletons. Parts keep seed order inside and are
    ordered by their first seed, so a partition into singletons starts
    MS-BFS exactly as one group per seed does.

    Adjacency is a Gram-matrix distance on coordinates centred on their mean,
    accepted only when it clears epsilon by an explicit rounding allowance
    (``c*u*(|a|^2 + |b|^2)`` plus a relative margin on ``eps^2``): every
    merged pair is strictly inside epsilon, so every backend's ball — whether
    it tests ``math.dist <= eps`` or a squared sum ``<= eps*eps`` — reports
    it. Exact-epsilon pairs are left to the BFS.
    """
    slots = store.slots_of(seeds)
    live = ((store.flags[slots] & DELETED) == 0) & (store.n_eps[slots] >= tau)
    cores = live.nonzero()[0]
    comp = np.arange(len(seeds))
    if len(cores) > 1:
        pts = store.coords[slots[cores]]
        pts = pts - pts.mean(axis=0)
        sq = np.einsum("ij,ij->i", pts, pts)
        slack = 32 * (pts.shape[1] + 4) * _UNIT_ROUNDOFF
        limit = eps * eps * (1.0 - slack)
        unvisited = np.ones(len(cores), dtype=bool)
        while unvisited.any():
            start = int(unvisited.argmax())
            unvisited[start] = False
            frontier = np.array([start])
            label = cores[start]
            while len(frontier):
                rest = unvisited.nonzero()[0]
                if not len(rest):
                    break
                reached = np.zeros(len(rest), dtype=bool)
                step = max(1, _SEED_PAIR_BUDGET // len(rest))
                for lo in range(0, len(frontier), step):
                    rows = frontier[lo : lo + step]
                    norms = sq[rows][:, None] + sq[rest][None, :]
                    d2 = norms - 2.0 * (pts[rows] @ pts[rest].T)
                    reached |= (d2 + slack * norms < limit).any(axis=0)
                frontier = rest[reached]
                unvisited[frontier] = False
                comp[cores[frontier]] = label
    parts: dict[int, list[int]] = {}
    for seed, label in zip(seeds, comp.tolist()):
        parts.setdefault(label, []).append(seed)
    return list(parts.values())


@dataclass
class ConnectivityResult:
    """Outcome of a density-connectedness check over a seed set.

    Attributes:
        num_components: connected components of the core graph touched by the
            seeds (0 when the seed set was empty).
        exhausted: fully traversed components, as lists of core pids; on a
            split these receive fresh cluster ids.
        survivor: cores visited by the search that was still running when the
            check stopped early; its component keeps the old cluster id and
            may be only partially traversed.
    """

    num_components: int = 0
    exhausted: list[list[int]] = field(default_factory=list)
    survivor: list[int] = field(default_factory=list)

    @property
    def connected(self) -> bool:
        return self.num_components <= 1


def check_connectivity(
    index,
    state: WindowState,
    seeds: Iterable[int],
    *,
    multi_starter: bool = True,
    epoch_probing: bool = True,
    on_border: Callable[[int, int], None] | None = None,
    trace=None,
) -> ConnectivityResult:
    """Count core-graph components reachable from ``seeds``.

    Args:
        index: spatial index holding every point in the window (plus any
            lingering exited ex-cores, which are skipped as deleted).
        state: window state whose store supplies counts and flags.
        seeds: core pids — the minimal bonding cores ``M^-(p)``.
        multi_starter: use MS-BFS (True) or sequential BFS (False).
        epoch_probing: use epoch-filtered index probes.
        on_border: optional callback ``(border_pid, expanding_core_pid)``
            invoked for every non-core point seen during expansion; DISC uses
            it to refresh border anchors (Section V).
        trace: optional :class:`~repro.observability.trace.StrideTrace`;
            when present, expansion / queue-merge / early-exit /
            seed-settled counters are accumulated onto it.

    Returns:
        A :class:`ConnectivityResult`; traversal touches only the components
        containing seeds and stops as early as the strategy allows.
    """
    seed_list = list(dict.fromkeys(seeds))
    if not seed_list:
        return ConnectivityResult()

    tau = state.params.tau
    eps = state.params.eps
    store = state.store
    flags_col = store.flags
    n_eps_col = store.n_eps
    slot_of = store._slot_of

    if multi_starter:
        starters = _seed_components(store, seed_list, eps, tau)
        if trace is not None and len(starters) == 1 < len(seed_list):
            # Every seed reaches every other through seed-to-seed edges: the
            # loop below is skipped, with no range search (DESIGN.md §3.2).
            trace.msbfs_seed_settled += 1
    else:
        starters = [[seed] for seed in seed_list]

    tick = index.new_tick() if epoch_probing else None

    def is_core_pid(pid: int) -> bool:
        slot = slot_of[pid]
        return not (flags_col[slot] & DELETED) and n_eps_col[slot] >= tau

    def should_mark(pid: int) -> bool:
        # Mark non-cores at first sight; cores only at expansion (see above).
        return not is_core_pid(pid)

    groups = DisjointSet()
    owner: dict[int, int] = {}
    queues: dict[int, deque[int]] = {}
    members: dict[int, list[int]] = {}
    for part in starters:
        gid = groups.make()
        for seed in part:
            owner[seed] = gid
        queues[gid] = deque(part)
        members[gid] = part

    alive: set[int] = set(queues)
    rotation: deque[int] = deque(queues)
    expanded: set[int] = set()
    # Exhausted components keyed by their group root. Kept addressable (not a
    # flat list) because a later expansion can touch an "exhausted" component
    # — e.g. a non-core seed whose group starts expanding after a neighbouring
    # component already ran dry — which proves the two were one component all
    # along. Such groups are revived instead of crashing the merge
    # bookkeeping on their missing queue.
    dead: dict[int, list[int]] = {}
    dead_order: list[int] = []

    def retire(root: int) -> None:
        alive.discard(root)
        dead[root] = members.pop(root)
        dead_order.append(root)
        del queues[root]

    def merge_into(root: int, qid: int) -> int:
        """Fold ``qid``'s group into ``root``'s; returns the merged root."""
        other = owner.get(qid)
        if other is None:
            owner[qid] = root
            members[root].append(qid)
            queues[root].append(qid)
            return root
        other_root = groups.find(other)
        root_now = groups.find(root)
        if other_root != root_now:
            if other_root in dead:
                # Contact with an exhausted group proves it never was a
                # separate component: bring it back before the union so
                # queue/member bookkeeping (and the final component count)
                # stay consistent.
                members[other_root] = dead.pop(other_root)
                dead_order.remove(other_root)
                queues[other_root] = deque()
                alive.add(other_root)
            winner = groups.union(other_root, root_now)
            loser = other_root if winner == root_now else root_now
            queues[winner].extend(queues.pop(loser))
            members[winner].extend(members.pop(loser))
            alive.discard(loser)
            root = winner
            if trace is not None:
                trace.msbfs_queue_merges += 1
        return root

    def expand(pid: int, group_root: int) -> int:
        """Expand one core vertex; returns the (possibly merged) group root."""
        if trace is not None:
            trace.msbfs_expansions += 1
        root = group_root
        # Ids-only probes (no candidate tuples), then scalar column reads per
        # neighbour in exact ball order — the balls here are small enough
        # that vectorized masking loses to two array lookups per point.
        coords = store.coords[slot_of[pid]].tolist()
        if epoch_probing:
            qids = index.ball_unvisited_pids(coords, eps, tick, should_mark)
            index.mark(pid, tick)
        else:
            qids = index.ball_pids(coords, eps).tolist()
        for qid in qids:
            if qid == pid:
                continue
            slot = slot_of[qid]
            if flags_col[slot] & DELETED:
                continue
            if n_eps_col[slot] >= tau:
                root = merge_into(root, qid)
            elif on_border is not None:
                on_border(qid, pid)
        return root

    while len(alive) > 1:
        if not rotation:
            # Starvation guard: every live group must stay reachable from
            # the rotation even if its original entry was consumed as stale.
            rotation.extend(sorted(alive))
        gid = rotation.popleft()
        root = groups.find(gid)
        if root != gid or root not in alive:
            continue  # stale rotation entry: this group merged into another
        queue = queues[root]
        # Skip entries already expanded under a merged group.
        while queue and queue[0] in expanded:
            queue.popleft()
        if not queue:
            retire(root)
            continue
        if multi_starter:
            pid = queue.popleft()
            expanded.add(pid)
            root = expand(pid, root)
            rotation.append(root)
        else:
            # Classic mode: run this search to exhaustion (or early exit).
            while len(alive) > 1:
                while queue and queue[0] in expanded:
                    queue.popleft()
                if not queue:
                    retire(root)
                    break
                pid = queue.popleft()
                expanded.add(pid)
                new_root = expand(pid, root)
                if new_root != root:
                    root = new_root
                    queue = queues[root]

    survivor_root = next(iter(alive))
    survivor = members.pop(survivor_root)
    if trace is not None and any(
        pid not in expanded for pid in queues[survivor_root]
    ):
        trace.msbfs_early_exits += 1
    return ConnectivityResult(
        num_components=len(dead_order) + 1,
        exhausted=[dead[root] for root in dead_order],
        survivor=survivor,
    )
