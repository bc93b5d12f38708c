"""Vector group descriptors and fabric layout planning (paper Section 2.1).

A vector group is a contiguous region of tiles: one *scalar* core followed by
``lanes`` vector lanes, the first of which is the *expander*.  The cores on
the lane path must be mesh-adjacent so the static inet links work; we lay
groups out along a serpentine walk of the mesh, which guarantees adjacency
for any contiguous run of tiles.

The group descriptor stands in for the paper's ``vconfig`` CSR bitmask: in
hardware each core computes a bitmask describing the forwarding path and
frontend configuration; here the runner registers a descriptor with the
fabric and cores name it by handle when executing ``vconfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

# Core roles
ROLE_INDEPENDENT = 0
ROLE_SCALAR = 1
ROLE_EXPANDER = 2
ROLE_VECTOR = 3

ROLE_NAMES = {ROLE_INDEPENDENT: 'independent', ROLE_SCALAR: 'scalar',
              ROLE_EXPANDER: 'expander', ROLE_VECTOR: 'vector'}


@dataclass
class GroupDescriptor:
    """Static description of one vector group.

    ``tiles`` lists core ids in inet path order: ``tiles[0]`` is the scalar
    core, ``tiles[1]`` the expander, and the rest plain vector cores.
    """

    group_id: int
    tiles: List[int]
    #: groups in this descriptor's program/job (what CSR_NGROUPS reports);
    #: None falls back to the fabric-wide registered-group count, which is
    #: only correct for the classic one-program-per-fabric flow.
    total_groups: Optional[int] = None

    # formation bookkeeping (reset per vconfig barrier)
    _arrived: set = field(default_factory=set, repr=False)

    @property
    def scalar(self) -> int:
        return self.tiles[0]

    @property
    def expander(self) -> int:
        return self.tiles[1]

    @property
    def lanes(self) -> List[int]:
        """The vector lanes (expander first)."""
        return self.tiles[1:]

    @property
    def num_lanes(self) -> int:
        return len(self.tiles) - 1

    def role_of(self, core_id: int) -> int:
        idx = self.tiles.index(core_id)
        if idx == 0:
            return ROLE_SCALAR
        if idx == 1:
            return ROLE_EXPANDER
        return ROLE_VECTOR

    def lane_index(self, core_id: int) -> int:
        """0-based lane id (expander is lane 0)."""
        return self.tiles.index(core_id) - 1

    def successor(self, core_id: int) -> int:
        """Next core on the inet path, or -1 at the tail."""
        idx = self.tiles.index(core_id)
        if idx + 1 < len(self.tiles):
            return self.tiles[idx + 1]
        return -1

    def hop_of(self, core_id: int) -> int:
        """Distance in inet hops from the scalar core (scalar = 0)."""
        return self.tiles.index(core_id)


def serpentine_order(width: int, height: int) -> List[int]:
    """Row-major serpentine walk: every consecutive pair is mesh-adjacent."""
    order = []
    for y in range(height):
        xs = range(width) if y % 2 == 0 else range(width - 1, -1, -1)
        for x in xs:
            order.append(y * width + x)
    return order


def mesh_adjacent(a: int, b: int, width: int) -> bool:
    """Are cores ``a`` and ``b`` neighbours on a ``width``-column mesh?"""
    ax, ay = a % width, a // width
    bx, by = b % width, b // width
    return abs(ax - bx) + abs(ay - by) == 1


@dataclass(frozen=True)
class PackingPlan:
    """Result of packing fixed-shape groups onto a mesh.

    Separates the two ways tiles end up idle: ``leftover_tiles`` is the
    serpentine tail too short for one more group (the non-rectangle-filling
    remainder, ``num_tiles % (lanes + 1)``), while ``capped_tiles`` are
    tiles a ``max_groups`` cap left unused even though they would fit.
    ``idle_tiles`` is their union, in mesh order.
    """

    width: int
    height: int
    lanes: int
    groups: Tuple[GroupDescriptor, ...]
    idle_tiles: Tuple[int, ...]
    leftover_tiles: Tuple[int, ...]
    capped_tiles: Tuple[int, ...]

    @property
    def tiles_per_group(self) -> int:
        return self.lanes + 1

    @property
    def num_tiles(self) -> int:
        return self.width * self.height

    @property
    def utilization(self) -> float:
        return 1.0 - len(self.idle_tiles) / self.num_tiles


def plan_packing(width: int, height: int, lanes: int,
                 max_groups: int = None) -> PackingPlan:
    """Pack as many (1 + lanes)-tile groups as fit along the serpentine.

    Mirrors the paper's Section 6.2 provisioning: V16 on 64 cores yields
    3 groups of 17 (80% utilization), V4 yields 12 groups of 5 (94%).
    Lane counts that do not fill the rectangle leave an explicit
    ``leftover_tiles`` tail; ``lanes + 1`` larger than the whole mesh
    yields zero groups and a plan that is all leftover.
    """
    if lanes < 1:
        raise ValueError(f'a vector group needs at least 1 lane, got {lanes}')
    order = serpentine_order(width, height)
    tiles_per_group = lanes + 1
    fit = len(order) // tiles_per_group
    ngroups = fit if max_groups is None else min(fit, max_groups)
    groups = tuple(
        GroupDescriptor(group_id=g,
                        tiles=order[g * tiles_per_group:
                                    (g + 1) * tiles_per_group],
                        total_groups=ngroups)
        for g in range(ngroups))
    leftover = set(order[fit * tiles_per_group:])
    used = {t for g in groups for t in g.tiles}
    idle = tuple(t for t in range(width * height) if t not in used)
    capped = tuple(t for t in idle if t not in leftover)
    return PackingPlan(width, height, lanes, groups, idle,
                       tuple(sorted(leftover)), capped)


def plan_groups(width: int, height: int, lanes: int,
                max_groups: int = None) -> Tuple[List[GroupDescriptor],
                                                 List[int]]:
    """Classic ``(groups, idle_tiles)`` view of :func:`plan_packing`."""
    plan = plan_packing(width, height, lanes, max_groups)
    return list(plan.groups), list(plan.idle_tiles)


def plan_groups_in(tiles: Sequence[int], lanes: int,
                   max_groups: int = None) -> Tuple[List[GroupDescriptor],
                                                    List[int]]:
    """Carve an explicit tile list into consecutive (1 + lanes) groups.

    ``tiles`` must already be path-ordered (e.g. a contiguous run of the
    serpentine, as handed out by the serving region allocator): every
    consecutive pair inside a group becomes an inet link.  Returns
    ``(groups, leftover_tiles)`` where the leftover is the tail too short
    for one more group.
    """
    tiles = list(tiles)
    tiles_per_group = lanes + 1
    ngroups = len(tiles) // tiles_per_group
    if max_groups is not None:
        ngroups = min(ngroups, max_groups)
    groups = []
    for g in range(ngroups):
        chunk = tiles[g * tiles_per_group:(g + 1) * tiles_per_group]
        groups.append(GroupDescriptor(group_id=g, tiles=chunk,
                                      total_groups=ngroups))
    used = {t for g in groups for t in g.tiles}
    leftover = [t for t in tiles if t not in used]
    return groups, leftover


def utilization(width: int, height: int, lanes: int) -> float:
    return plan_packing(width, height, lanes).utilization
