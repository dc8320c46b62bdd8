"""Routing substrate: two-level fat-tree tables, ECMP, and the rerouting
policies of the architectures compared in the paper's failure study.

The ShareBackup "router" (paths never change because failed hardware is
replaced) lives in :mod:`repro.core` with the rest of the contribution.
"""

from .base import LookupMiss, Packet, PrefixEntry, RoutingTable, SuffixEntry
from .ecmp import EcmpSelector, enumerate_paths, flow_hash, operational_paths
from .fallback import FallbackRouter
from .paths import Path
from .reroute_f10 import F10LocalRerouteRouter
from .reroute_global import GlobalOptimalRerouteRouter
from .router import LoadMap, Router
from .static import StaticEcmpRouter
from .twolevel import TwoLevelRouting, down_port, host_port, pod_port, up_port

__all__ = [
    "EcmpSelector",
    "F10LocalRerouteRouter",
    "FallbackRouter",
    "GlobalOptimalRerouteRouter",
    "LoadMap",
    "LookupMiss",
    "Packet",
    "Path",
    "PrefixEntry",
    "Router",
    "RoutingTable",
    "StaticEcmpRouter",
    "SuffixEntry",
    "TwoLevelRouting",
    "down_port",
    "enumerate_paths",
    "flow_hash",
    "host_port",
    "operational_paths",
    "pod_port",
    "up_port",
]
