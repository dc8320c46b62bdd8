"""Paths and directed segments for folded-Clos topologies.

Fat-tree, F10's AB fat-tree, and the Aspen variant are all folded Clos
networks: every host-to-host route climbs to the lowest common level and
descends, so the complete set of shortest paths is structural:

* same edge switch:          ``H → E → H'``                      (2 hops)
* same pod, different edge:  ``H → E → A → E' → H'``             (4 hops)
* different pods:            ``H → E → A → C → A' → E' → H'``    (6 hops)

The candidate sets themselves come from the static wiring tables of
:class:`~repro.routing.ecmp.EcmpSelector`, which are read off the
concrete topology's adjacency, so they honour F10's skewed wiring and
Aspen's reduced parent sets.

Paths also carry their *directed segment* view — the ids of the
per-direction link capacities the fluid simulator allocates bandwidth
over, in :class:`~repro.topology.base.Topology`'s encoding.  Directions
matter: a full-duplex link congested host-bound may be idle core-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..topology.base import Topology

__all__ = ["Path", "hop_segment"]


@dataclass(frozen=True)
class Path:
    """An ordered node sequence from source host to destination host."""

    nodes: tuple[str, ...]

    @property
    def hops(self) -> int:
        """Number of links traversed."""
        return len(self.nodes) - 1

    @property
    def src(self) -> str:
        return self.nodes[0]

    @property
    def dst(self) -> str:
        return self.nodes[-1]

    def segments(self, topo: Topology, flow_label: int = 0) -> tuple[int, ...]:
        """Resolve into directed segment ids against ``topo``.

        Each hop is resolved by :func:`hop_segment`.
        """
        nodes = self.nodes
        return tuple(
            hop_segment(topo, nodes[hop], nodes[hop + 1], hop, flow_label)
            for hop in range(len(nodes) - 1)
        )

    def uses_node(self, name: str) -> bool:
        return name in self.nodes

    def is_operational(self, topo: Topology) -> bool:
        return topo.path_is_operational(self.nodes)

    def __repr__(self) -> str:
        return "Path(" + " > ".join(self.nodes) + ")"


def hop_segment(topo: Topology, a: str, b: str, hop: int, flow_label: int = 0) -> int:
    """The directed segment id hop number ``hop`` (``a → b``) of a path uses.

    Parallel links (Aspen-style duplicated wiring) are load-balanced:
    the operational links of the hop, in id order, are indexed by a hash
    of ``(flow_label, hop)``, so distinct flows spread across the
    parallel pair and the pair's capacity actually aggregates.  With a
    single link (every plain fat-tree hop) the choice is the identity.
    If no link is operational the lowest-id one is returned so callers
    can still inspect a dead path's geometry.
    """
    ids = topo.link_ids_between(a, b)
    if not ids:
        raise ValueError(f"path hop {a}->{b} has no link")
    link_id = ids[0]
    if len(ids) > 1:
        operational = [i for i in ids if topo.link_is_operational(i)]
        if len(operational) == 1:
            link_id = operational[0]
        elif operational:
            from .ecmp import flow_hash

            link_id = operational[flow_hash(flow_label, hop) % len(operational)]
    return topo.segment(link_id, a)
