"""Network substrate: topologies, fast-reroute, forwarding, scenarios.

Everything the paper's two running examples need — the §4 fast-reroute
configuration compiled to a forwarding c-table, reachability analysis
under failure patterns, per-prefix RIB-derived forwarding (§6), and the
§5 multi-team enterprise model.
"""

from .acl import ANY, Acl, AclRule
from .enterprise import (
    EnterpriseModel,
    PORTS,
    SCHEMAS,
    SERVERS,
    SUBNETS,
    column_domains,
    constraint_T1,
    constraint_T2,
    listing4_update,
    policy_C_lb,
    policy_C_s,
)
from .forwarding import CompiledForwarding, PrefixRoutes, compile_forwarding
from .frr import FrrConfig, ProtectedLink, paper_figure1
from .interdomain import AnnouncementAnalysis, ExportPolicy, InterdomainNetwork
from .reachability import ReachabilityAnalyzer, reachability_program
from .resilience import (
    ResilienceReport,
    analyze_resilience,
    critical_sets,
    pair_tolerance,
)
from .topology import Link, Topology

__all__ = [
    "ANY",
    "Acl",
    "AclRule",
    "EnterpriseModel",
    "PORTS",
    "SCHEMAS",
    "SERVERS",
    "SUBNETS",
    "column_domains",
    "constraint_T1",
    "constraint_T2",
    "listing4_update",
    "policy_C_lb",
    "policy_C_s",
    "CompiledForwarding",
    "PrefixRoutes",
    "compile_forwarding",
    "FrrConfig",
    "ProtectedLink",
    "paper_figure1",
    "AnnouncementAnalysis",
    "ExportPolicy",
    "InterdomainNetwork",
    "ReachabilityAnalyzer",
    "reachability_program",
    "ResilienceReport",
    "analyze_resilience",
    "critical_sets",
    "pair_tolerance",
    "Link",
    "Topology",
]
