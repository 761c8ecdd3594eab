"""Profile analyzer: utilization metric, hierarchical breakdown, planning.

This is the "SLIMSTART Analyzer" of Fig. 7.  It consumes one merged
:class:`ProfileBundle` and produces an :class:`InefficiencyReport`:

1. Gate on the initialization ratio (only applications whose library init
   exceeds 10 % of end-to-end time are worth optimizing — Fig. 6, step 1).
2. Compute per-library runtime utilization ``U(L)`` (Eq. 4) with CCT-style
   escalation: a sample credits every library its stack touches, once.
3. Classify libraries: *unused* (no runtime samples), *rarely used*
   (``U(L)`` below the 2 % threshold), or *active*.
4. Plan deferrals: unused/rare libraries are lazily imported at the
   handler level; inside active libraries, loaded subtrees with zero
   runtime samples but measurable init cost are deferred at the library
   level (the nltk.sem/stem/parse/tag case of Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cct import CallingContextTree
from repro.core.profiles import ProfileBundle
from repro.core.samples import RUNTIME, LibraryAttributor
from repro.plan import DeferralPlan

UNUSED = "unused"
RARE = "rarely-used"
ACTIVE = "active"


@dataclass(frozen=True)
class AnalyzerConfig:
    """Thresholds, defaulted to the paper's values.

    Only the rare-utilization threshold is a field (the threshold
    ablation sweeps it); the rest are the paper's fixed calibration.
    """

    INIT_RATIO_THRESHOLD = 0.10  # profile only apps above 10 % init share
    MIN_LIBRARY_INIT_SHARE = 0.01  # ignore libraries below 1 % of init
    MIN_SUBTREE_INIT_SHARE = 0.01  # defer subtrees above 1 % of init

    rare_utilization_threshold: float = 0.02  # <2 % of samples = rarely used

    def __post_init__(self) -> None:
        if not 0.0 <= self.rare_utilization_threshold <= 1.0:
            raise ValueError(
                "rare_utilization_threshold must be in [0, 1]: "
                f"{self.rare_utilization_threshold}"
            )


@dataclass(frozen=True)
class LibraryRow:
    """One library's line in the SLIMSTART summary (Tables IV/V)."""

    library: str
    utilization: float  # U(L), fraction of runtime samples
    init_ms: float
    init_share: float  # fraction of total library init time
    classification: str  # unused / rarely-used / active
    deferral: str  # "handler", "library", or "none"


@dataclass(frozen=True)
class SubtreeFlag:
    """A loaded-but-unused package subtree inside an active library."""

    module: str  # dotted subtree root, e.g. "slnltk.sem"
    init_ms: float
    init_share: float
    utilization: float


@dataclass
class InefficiencyReport:
    """Analyzer output: findings plus the machine-applicable plan."""

    app: str
    profiled: bool  # False when the init-ratio gate said "skip"
    init_ratio: float
    total_init_ms: float
    total_runtime_weight: float
    rows: list[LibraryRow] = field(default_factory=list)
    subtree_flags: list[SubtreeFlag] = field(default_factory=list)
    plan: DeferralPlan = None  # type: ignore[assignment]
    call_paths: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.plan is None:
            self.plan = DeferralPlan.empty(self.app)

    @property
    def flagged_modules(self) -> list[str]:
        return sorted(self.plan.all_deferred)

    def row(self, library: str) -> LibraryRow:
        for candidate in self.rows:
            if candidate.library == library:
                return candidate
        raise KeyError(f"no analyzer row for library {library!r}")


class Analyzer:
    """Turns profile bundles into inefficiency reports."""

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config or AnalyzerConfig()

    # -- utilization ---------------------------------------------------------

    def library_utilization(
        self, bundle: ProfileBundle, attributor: LibraryAttributor
    ) -> tuple[dict[str, float], float]:
        """Escalated ``U(L)`` per library plus the sample denominator.

        Runtime samples only (init samples are execution of module
        top-level code and must not count as usage — §III TC-2(3)).  The
        denominator is the weight of runtime samples that touch *library*
        code: handler-local work (request parsing, model math written in
        the handler itself) does not dilute library utilization, so an
        execution-heavy application cannot push a genuinely hot library
        under the rare threshold.
        """
        touched: dict[str, float] = {}
        denominator = 0.0
        for sample in bundle.samples:
            if sample.kind != RUNTIME:
                continue
            libraries = attributor.libraries_in(sample.path)
            if not libraries:
                continue
            denominator += sample.weight
            for library in libraries:
                touched[library] = touched.get(library, 0.0) + sample.weight
        if denominator <= 0:
            return {}, 0.0
        return (
            {library: weight / denominator for library, weight in touched.items()},
            denominator,
        )

    def module_utilization(
        self, bundle: ProfileBundle, attributor: LibraryAttributor
    ) -> dict[str, float]:
        """Per-module escalated touch weight (same denominator as U(L))."""
        touched: dict[str, float] = {}
        denominator = 0.0
        for sample in bundle.samples:
            if sample.kind != RUNTIME:
                continue
            modules = attributor.modules_in(sample.path)
            if not modules:
                continue
            denominator += sample.weight
            for module in modules:
                touched[module] = touched.get(module, 0.0) + sample.weight
        if denominator <= 0:
            return {}
        return {module: weight / denominator for module, weight in touched.items()}

    def subtree_utilization(
        self, module_util: dict[str, float], subtree_root: str
    ) -> float:
        """Upper bound on a subtree's utilization (sum of touch fractions)."""
        prefix = subtree_root + "."
        return sum(
            value
            for module, value in module_util.items()
            if module == subtree_root or module.startswith(prefix)
        )

    # -- main entry ------------------------------------------------------------

    def analyze(
        self, bundle: ProfileBundle, attributor: LibraryAttributor
    ) -> InefficiencyReport:
        profile = bundle.import_profile
        total_init = profile.total_init_ms
        report = InefficiencyReport(
            app=bundle.app,
            profiled=bundle.init_ratio >= self.config.INIT_RATIO_THRESHOLD,
            init_ratio=bundle.init_ratio,
            total_init_ms=total_init,
            total_runtime_weight=0.0,
        )
        if not report.profiled or total_init <= 0:
            return report

        library_util, denominator = self.library_utilization(bundle, attributor)
        module_util = self.module_utilization(bundle, attributor)
        report.total_runtime_weight = denominator

        deferred_handler: set[str] = set()
        deferred_edges: set[str] = set()
        libraries = [
            library
            for library in profile.library_names()
            if library in attributor.library_names
        ]
        handler_tops = {
            dotted.partition(".")[0]: dotted for dotted in bundle.handler_imports
        }

        for library in sorted(
            libraries, key=lambda name: -profile.library_init_ms(name)
        ):
            init_ms = profile.library_init_ms(library)
            init_share = init_ms / total_init
            utilization = library_util.get(library, 0.0)
            if utilization <= 0.0:
                classification = UNUSED
            elif utilization < self.config.rare_utilization_threshold:
                classification = RARE
            else:
                classification = ACTIVE

            deferral = "none"
            if (
                classification in (UNUSED, RARE)
                and init_share >= self.config.MIN_LIBRARY_INIT_SHARE
            ):
                if library in handler_tops:
                    deferred_handler.add(handler_tops[library])
                    deferral = "handler"
                else:
                    # Loaded transitively by another library: stub the edge.
                    deferred_edges.add(library)
                    deferral = "library"
            elif classification == ACTIVE:
                flags = self._scan_subtrees(
                    profile, module_util, library, total_init
                )
                if flags:
                    deferral = "library"
                for flag in flags:
                    report.subtree_flags.append(flag)
                    deferred_edges.add(flag.module)

            report.rows.append(
                LibraryRow(
                    library=library,
                    utilization=utilization,
                    init_ms=init_ms,
                    init_share=init_share,
                    classification=classification,
                    deferral=deferral,
                )
            )

        report.plan = DeferralPlan(
            app=bundle.app,
            deferred_handler_imports=frozenset(deferred_handler),
            deferred_library_edges=frozenset(deferred_edges),
        )
        report.call_paths = self._call_paths(bundle, attributor, report)
        return report

    def _scan_subtrees(
        self,
        profile,
        module_util: dict[str, float],
        library: str,
        total_init: float,
    ) -> list[SubtreeFlag]:
        """Scan the library's direct sub-packages for cold subtrees (Fig. 6).

        A loaded sub-package whose runtime utilization falls below the
        rare threshold (Table IV's ``nltk.sem``, utilization 0; Table V's
        rarely-needed validators) and whose init cost is worth saving is
        flagged whole.  The scan stops at that depth, the granularity of
        the paper's own optimizations (``nltk.sem``, ``igraph.drawing``):
        deeper, it would flag modules whose *time share* is tiny even
        though they run on every request — cheap code is not rare code.
        """
        flags: list[SubtreeFlag] = []
        for subtree_root in profile.children_of(library):
            init_ms = profile.subtree_init_ms(subtree_root)
            init_share = init_ms / total_init
            if init_share < self.config.MIN_SUBTREE_INIT_SHARE:
                continue
            utilization = self.subtree_utilization(module_util, subtree_root)
            if utilization < self.config.rare_utilization_threshold:
                flags.append(
                    SubtreeFlag(
                        module=subtree_root,
                        init_ms=init_ms,
                        init_share=init_share,
                        utilization=utilization,
                    )
                )
        return flags

    def _call_paths(
        self,
        bundle: ProfileBundle,
        attributor: LibraryAttributor,
        report: InefficiencyReport,
    ) -> dict[str, list[str]]:
        """Representative call paths for every flagged module (Tables IV/V).

        One walk of the tree serves every flagged module: a node whose
        final frame lies in ``a.b.c`` is a candidate for ``a.b.c``,
        ``a.b`` and ``a``, so it climbs its module's dotted ancestors and
        joins the list of each flagged one.  Per module that is the
        oracle ``tests/core/oracles.py::paths_to`` (one walk per question)
        with a "frame is in this subtree" predicate and ``limit=3`` — same
        candidates in the same walk order, same sort key.
        """
        tree = CallingContextTree.from_samples(bundle.samples)
        flagged = report.flagged_modules
        candidates: dict[str, list] = {dotted: [] for dotted in flagged}
        for path, node in tree.walk():
            module = attributor.module_of(path[-1])
            weighted = None
            while module:
                found = candidates.get(module)
                if found is not None:
                    if weighted is None:
                        weighted = (path, node.total_runtime() + node.total_init())
                    found.append(weighted)
                module = module.rpartition(".")[0]
        paths: dict[str, list[str]] = {}
        for dotted in flagged:
            found = candidates[dotted]
            if not found:
                continue
            found.sort(key=lambda item: (-item[1], item[0]))
            paths[dotted] = [
                " -> ".join(
                    f"{frame.file.rsplit('/', 1)[-1]}:{frame.function}"
                    for frame in path
                )
                for path, _ in found[:3]
            ]
        return paths


#: Fig. 2's upper bound of a rarely observed package's share of samples.
DYN_RARE_SHARE = 0.02


def dynamic_categorization(
    bundle: ProfileBundle, attributor: LibraryAttributor
) -> dict[str, float]:
    """Fig. 2's DYN columns: init overhead split by observed usage.

    Init overhead is categorized at the same granularity the analyzer
    optimizes — libraries and their direct sub-packages — into buckets:
    **no-sample** (never observed executing), **0-2 %** of samples
    (rarely observed), and **> 2 %** (hot).  The no-sample plus rare
    fractions bound the latency reduction lazy loading can achieve
    (§II-B); per-module bucketing would be meaningless here because a
    hot package's individual modules each hold a sliver of time.
    """
    analyzer = Analyzer()
    module_util = analyzer.module_utilization(bundle, attributor)
    library_util, _ = analyzer.library_utilization(bundle, attributor)
    profile = bundle.import_profile
    total = profile.total_init_ms
    if total <= 0:
        return {"no_sample": 0.0, "rare": 0.0, "hot": 0.0}
    buckets = {"no_sample": 0.0, "rare": 0.0, "hot": 0.0}

    def bucket_for(utilization: float) -> str:
        if utilization <= 0.0:
            return "no_sample"
        if utilization < DYN_RARE_SHARE:
            return "rare"
        return "hot"

    for library in profile.library_names():
        if library not in attributor.library_names:
            continue
        children = profile.children_of(library)
        accounted = 0.0
        for child in children:
            share = profile.subtree_init_ms(child) / total
            accounted += share
            utilization = analyzer.subtree_utilization(module_util, child)
            buckets[bucket_for(utilization)] += share
        # The library root module's own init follows the library verdict.
        root_share = profile.library_init_ms(library) / total - accounted
        buckets[bucket_for(library_util.get(library, 0.0))] += max(0.0, root_share)
    return buckets
