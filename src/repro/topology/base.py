"""Core graph primitives for data center network topologies.

This module defines the low-level building blocks shared by every
topology in the reproduction: :class:`Node`, :class:`Link`, and
:class:`Topology`.  The model is deliberately explicit rather than a thin
wrapper over ``networkx``:

* links are first-class objects with identity, capacity, and an up/down
  state (parallel links between the same pair of nodes are allowed, which
  Aspen-style duplicated wiring needs);
* nodes carry a *kind* (host, edge, aggregation, core, circuit switch)
  plus structural coordinates (pod, in-pod index, level) that the
  structured routing code relies on;
* failure state is part of the topology itself so that failure injection,
  rerouting, and the ShareBackup control plane all observe one consistent
  view.

A :class:`Topology` can be exported to a ``networkx.Graph`` for generic
algorithms (connectivity checks in tests, for example), but the hot paths
— path enumeration and bandwidth allocation — operate on the explicit
adjacency structures kept here.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "NodeKind",
    "Level",
    "Node",
    "Link",
    "Topology",
    "TopologyError",
    "DEFAULT_LINK_CAPACITY",
]

#: Default link capacity in bits per second (10 Gbps, the paper's link speed).
DEFAULT_LINK_CAPACITY: float = 10e9


class TopologyError(Exception):
    """Raised on malformed topology operations (duplicate nodes, bad links)."""


class NodeKind(Enum):
    """The role a node plays in the network."""

    HOST = "host"
    EDGE = "edge"
    AGGREGATION = "aggregation"
    CORE = "core"
    #: Physical-layer circuit switch (ShareBackup only).  Circuit switches
    #: are transparent to routing; they appear in the physical wiring model
    #: but not in the logical packet topology.
    CIRCUIT = "circuit"

    @property
    def is_packet_switch(self) -> bool:
        """True for store-and-forward packet switches (edge/agg/core)."""
        return self in (NodeKind.EDGE, NodeKind.AGGREGATION, NodeKind.CORE)


class Level(Enum):
    """Vertical position in a folded-Clos network, used by up/down routing."""

    HOST = 0
    EDGE = 1
    AGGREGATION = 2
    CORE = 3

    @classmethod
    def of(cls, kind: NodeKind) -> "Level":
        """Map a node kind to its Clos level.

        Circuit switches have no level: they are physical-layer devices
        spliced *into* links, not hops of the logical topology.
        """
        table = {
            NodeKind.HOST: cls.HOST,
            NodeKind.EDGE: cls.EDGE,
            NodeKind.AGGREGATION: cls.AGGREGATION,
            NodeKind.CORE: cls.CORE,
        }
        try:
            return table[kind]
        except KeyError:
            raise TopologyError(f"node kind {kind} has no Clos level") from None


@dataclass
class Node:
    """A device in the network.

    Attributes:
        name: Globally unique identifier, e.g. ``"E.1.0"`` for the 0th edge
            switch of pod 1 (mirroring the paper's :math:`E_{1,0}`).
        kind: The device role.
        pod: Pod index for in-pod devices, ``None`` for cores and for
            devices outside any pod.
        index: In-pod index for pod devices, global index for cores/hosts.
        is_backup: True for ShareBackup spare switches.  A backup switch is
            structurally identical to the regular members of its failure
            group but starts with no live role.
        up: Liveness flag.  A down node implies all incident links are
            non-operational.
        attrs: Free-form annotations (address, failure-group id, ...).
    """

    name: str
    kind: NodeKind
    pod: Optional[int] = None
    index: int = 0
    is_backup: bool = False
    up: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def level(self) -> Level:
        """Clos level of this node (raises for circuit switches)."""
        return Level.of(self.kind)

    def __hash__(self) -> int:  # nodes are identified by name
        return hash(self.name)

    def __repr__(self) -> str:
        state = "" if self.up else " DOWN"
        backup = " backup" if self.is_backup else ""
        return f"<Node {self.name} {self.kind.value}{backup}{state}>"


@dataclass
class Link:
    """An undirected physical link between two nodes.

    Links have identity (``link_id``) so parallel links are representable,
    and an ``up`` flag that failure injection toggles.  ``capacity`` is in
    bits per second and is shared by both directions independently — the
    fluid simulator treats each direction as a separate capacity pool,
    matching full-duplex Ethernet.
    """

    link_id: int
    a: str
    b: str
    capacity: float = DEFAULT_LINK_CAPACITY
    up: bool = True
    attrs: dict = field(default_factory=dict)

    def other(self, node: str) -> str:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node} is not an endpoint of link {self.link_id}")

    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)

    def __hash__(self) -> int:
        return self.link_id

    def __repr__(self) -> str:
        state = "" if self.up else " DOWN"
        return f"<Link {self.link_id} {self.a}--{self.b}{state}>"


class Topology:
    """A mutable network graph with explicit failure state.

    The class maintains three views kept consistent by construction:

    * ``nodes``: name → :class:`Node`;
    * ``links``: link id → :class:`Link`;
    * an adjacency index mapping each node to its neighbours and the link
      ids connecting them.

    *Operational* accessors (:meth:`up_neighbors`,
    :meth:`link_is_operational`, ...) take both link state and endpoint
    node state into account: a link whose endpoint switch died is down for
    all practical purposes even though the cable itself is healthy — this
    distinction matters for ShareBackup's failure diagnosis, which must
    tell faulty interfaces apart from healthy cables.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.links: dict[int, Link] = {}
        #: node → neighbour → ids of the links between them, ascending.
        #: Link ids only grow, so appending keeps each tuple in id order.
        self._adj: dict[str, dict[str, tuple[int, ...]]] = {}
        self._link_ids = itertools.count()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register ``node``; the name must be unused."""
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._adj[node.name] = {}
        return node

    def add_link(
        self,
        a: str,
        b: str,
        capacity: float = DEFAULT_LINK_CAPACITY,
        **attrs: object,
    ) -> Link:
        """Connect nodes ``a`` and ``b`` with a new link.

        Parallel links are allowed; self-loops are not.
        """
        if a == b:
            raise TopologyError(f"self-loop on {a!r}")
        for name in (a, b):
            if name not in self.nodes:
                raise TopologyError(f"unknown node {name!r}")
        link = Link(next(self._link_ids), a, b, capacity=capacity, attrs=attrs)
        self.links[link.link_id] = link
        self._adj[a][b] = self._adj[a].get(b, ()) + (link.link_id,)
        self._adj[b][a] = self._adj[b].get(a, ()) + (link.link_id,)
        return link

    def remove_link(self, link_id: int) -> None:
        """Permanently delete a link (used by rewiring builders, not failures)."""
        link = self.links.pop(link_id)
        for a, b in ((link.a, link.b), (link.b, link.a)):
            remaining = tuple(i for i in self._adj[a][b] if i != link_id)
            if remaining:
                self._adj[a][b] = remaining
            else:
                del self._adj[a][b]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def link(self, link_id: int) -> Link:
        return self.links[link_id]

    def has_node(self, name: str) -> bool:
        return name in self.nodes

    def neighbors(self, name: str) -> Iterator[str]:
        """All neighbours, regardless of liveness."""
        return iter(self._adj[name])

    def link_ids_between(self, a: str, b: str) -> tuple[int, ...]:
        """Ids of all links (parallel included) between ``a`` and ``b``,
        ascending."""
        return self._adj.get(a, {}).get(b, ())

    def links_between(self, a: str, b: str) -> list[Link]:
        """All links (parallel included) between ``a`` and ``b``, by id."""
        return [self.links[i] for i in self.link_ids_between(a, b)]

    def links_of(self, name: str) -> Iterator[Link]:
        """All links incident to ``name``."""
        for ids in self._adj[name].values():
            for link_id in ids:
                yield self.links[link_id]

    def degree(self, name: str) -> int:
        return sum(len(ids) for ids in self._adj[name].values())

    def nodes_of_kind(self, kind: NodeKind, include_backup: bool = True) -> list[Node]:
        """All nodes of ``kind``, sorted by name for determinism."""
        return sorted(
            (
                n
                for n in self.nodes.values()
                if n.kind is kind and (include_backup or not n.is_backup)
            ),
            key=lambda n: n.name,
        )

    def hosts(self) -> list[Node]:
        return self.nodes_of_kind(NodeKind.HOST)

    def packet_switches(self, include_backup: bool = True) -> list[Node]:
        """All edge/aggregation/core switches, sorted by name."""
        return sorted(
            (
                n
                for n in self.nodes.values()
                if n.kind.is_packet_switch and (include_backup or not n.is_backup)
            ),
            key=lambda n: n.name,
        )

    # ------------------------------------------------------------------
    # failure state
    # ------------------------------------------------------------------

    def fail_node(self, name: str) -> None:
        self.nodes[name].up = False

    def restore_node(self, name: str) -> None:
        self.nodes[name].up = True

    def fail_link(self, link_id: int) -> None:
        self.links[link_id].up = False

    def restore_link(self, link_id: int) -> None:
        self.links[link_id].up = True

    def node_is_up(self, name: str) -> bool:
        return self.nodes[name].up

    def link_is_operational(self, link_id: int) -> bool:
        """True if the link and *both* of its endpoints are up."""
        link = self.links[link_id]
        return link.up and self.nodes[link.a].up and self.nodes[link.b].up

    def up_neighbors(self, name: str) -> Iterator[tuple[str, Link]]:
        """Yield ``(neighbor, link)`` pairs reachable over operational links."""
        if not self.nodes[name].up:
            return
        for other, ids in self._adj[name].items():
            if not self.nodes[other].up:
                continue
            for link_id in ids:
                link = self.links[link_id]
                if link.up:
                    yield other, link

    def operational_links_between(self, a: str, b: str) -> list[Link]:
        return [
            link
            for link in self.links_between(a, b)
            if self.link_is_operational(link.link_id)
        ]

    def failed_nodes(self) -> list[str]:
        return sorted(n.name for n in self.nodes.values() if not n.up)

    def failed_links(self) -> list[int]:
        return sorted(l.link_id for l in self.links.values() if not l.up)

    def clear_failures(self) -> None:
        """Restore every node and link to the up state."""
        for node in self.nodes.values():
            node.up = True
        for link in self.links.values():
            link.up = True

    # ------------------------------------------------------------------
    # interop & utilities
    # ------------------------------------------------------------------

    def to_networkx(self, operational_only: bool = False) -> "nx.MultiGraph":
        """Export to a ``networkx.MultiGraph`` (lazy import keeps startup cheap)."""
        import networkx as nx

        graph = nx.MultiGraph(name=self.name)
        for node in self.nodes.values():
            if operational_only and not node.up:
                continue
            graph.add_node(node.name, kind=node.kind.value, pod=node.pod)
        for link in self.links.values():
            if operational_only and not self.link_is_operational(link.link_id):
                continue
            if link.a in graph and link.b in graph:
                graph.add_edge(link.a, link.b, key=link.link_id, capacity=link.capacity)
        return graph

    def path_links(self, node_path: Iterable[str]) -> list[Link]:
        """Resolve a node sequence into concrete links.

        When parallel links exist, the first operational one is used; if
        none is operational the first link is returned (the caller decides
        how to treat a dead path).
        """
        nodes = list(node_path)
        links: list[Link] = []
        for a, b in zip(nodes, nodes[1:]):
            candidates = self.links_between(a, b)
            if not candidates:
                raise TopologyError(f"no link between {a!r} and {b!r}")
            chosen = next(
                (l for l in candidates if self.link_is_operational(l.link_id)),
                candidates[0],
            )
            links.append(chosen)
        return links

    def path_is_operational(self, node_path: Iterable[str]) -> bool:
        """True when every hop of ``node_path`` has an operational link."""
        nodes = list(node_path)
        if any(not self.nodes[n].up for n in nodes):
            return False
        for a, b in zip(nodes, nodes[1:]):
            if not self.operational_links_between(a, b):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name!r}: {len(self.nodes)} nodes, "
            f"{len(self.links)} links>"
        )
