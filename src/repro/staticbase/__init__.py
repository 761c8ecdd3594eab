"""FaaSLight-style static analysis baseline.

The paper's main comparison point [13] eliminates libraries *unreachable
from any entry function* via static call-graph reachability.  Crucially, it
cannot see workload skew: a library reachable only from a never-invoked
entry point stays loaded.  This package implements the baseline exactly
on application specifications (for the simulator), producing the same
:class:`~repro.plan.DeferralPlan` currency as SLIMSTART, so the two tools
are compared by running identical machinery on their plans.
"""

from repro.staticbase.planner import dead_subtree_plan
from repro.staticbase.spec_analysis import StaticAnalysis, analyze_sim_app

__all__ = [
    "dead_subtree_plan",
    "StaticAnalysis",
    "analyze_sim_app",
]
