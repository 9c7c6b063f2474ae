"""repro.ablate — automated ablation & experiment-campaign engine.

Declares component **axes**, generates deterministic **run matrices**
(one-factor / factorial / A-B) with spec-derived cell run IDs, executes
them through pluggable **runners** (pipeline, serve, faults, cluster,
synthetic) serially or across worker processes, resumes idempotently from
a :class:`~repro.obs.runs.RunRegistry`, and scores per-component
**importance** into a ranked :class:`AblationReport`.

See DESIGN.md section 14 for the architecture and the determinism
contract for parallel execution.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".campaigns": (
        "BUILTIN_CAMPAIGNS",
        "builtin_campaign",
        "campaign_names",
        "components_campaign",
        "fleet_policy_campaign",
        "reliability_campaign",
        "serving_policy_campaign",
        "smoke_campaign",
    ),
    ".engine": (
        "CAMPAIGN_WORKLOAD_KIND",
        "CampaignResult",
        "report_from_registry",
        "run_campaign",
    ),
    ".importance": (
        "INDIFFERENCE",
        "SCORING_DIRECTIONS",
        "ImportanceEntry",
        "MetricDelta",
        "metric_direction",
        "metric_harm",
        "score_importance",
    ),
    ".matrix": (
        "CELL_WORKLOAD_KIND",
        "Cell",
        "RunMatrix",
        "cell_identity",
        "generate_matrix",
    ),
    ".report": ("AblationReport", "build_report"),
    ".runners": ("get_runner", "register_runner", "runner_names"),
    ".spec": ("CAMPAIGN_MODES", "Axis", "CampaignSpec", "axis"),
})
