"""Definitions of the 22 evaluated applications (Table II's population).

Per-app library sets reproduce Table II's "# of libs" / "# of modules"
columns; cluster usage classes are calibrated so the removable
initialization fraction matches the paper's initialization speedup
(``u = 1 - 1/speedup``), and the handler execution budget is derived from
the init-vs-e2e speedup pair.  Five applications (the ``CLEAN_*`` group)
carry no meaningful inefficiency — the paper finds optimization targets in
17 of 22 apps, and so do we.

Fig. 2 calibration note: the orphaned (statically removable) share of each
FaaSLight app preserves the *ratio* of static-reachability savings to
dynamic savings that Fig. 2 reports, scaled into the Table II speedup
budget (the paper's Fig. 2 upper bound is an estimate, not the tool's
achieved reduction; Table II is primary here — see EXPERIMENTS.md).
"""

from __future__ import annotations

from functools import partial

from repro.apps.model import AppDefinition, BenchmarkApp, PaperNumbers, instantiate
from repro.common.errors import SpecError
from repro.synthlib import catalog as libs
from repro.synthlib.catalog import generic_library


def _generic(name, modules, depth, init_ms, memory_kb, seed, deps=()):
    return partial(
        generic_library,
        name,
        module_count=modules,
        depth=depth,
        total_init_cost_ms=init_ms,
        total_memory_kb=memory_kb,
        seed=seed,
        dependencies=tuple(deps),
    )


APP_DEFINITIONS: tuple[AppDefinition, ...] = (
    # ----------------------------------------------------------------- RainbowCake
    AppDefinition(
        key="R-DV",
        name="dna_visualisation",
        suite="RainbowCake",
        category="Scientific Computing",
        description="DNA sequence transformation and visualization.",
        library_builders=(
            libs.numpy_like,
            _generic("sldnautils", 52, 5, 420.0, 26_000.0, seed=101),
        ),
        hot=("slnumpy.core", "slnumpy.lib", "sldnautils.part1"),
        rare=("sldnautils.part2",),
        never=(
            "sldnautils.part0",
            "slnumpy.linalg",
            "slnumpy.fft",
            "slnumpy.random",
            "slnumpy.ma",
            "slnumpy.polynomial",
        ),
        paper=PaperNumbers(2, 242, 4.75, 2.30, 2.26, 2.03, 1.99),
    ),
    AppDefinition(
        key="R-GB",
        name="graph_bfs",
        suite="RainbowCake",
        category="Graph Processing",
        description="Breadth-first search over generated graphs (Table I).",
        library_builders=(libs.igraph_like,),
        hot=("sligraph.core",),
        hot_secondary=("sligraph.community", "sligraph.io"),
        never=("sligraph.drawing",),
        paper=PaperNumbers(1, 86, 3.74, 1.71, 1.66, 1.55, 1.54),
    ),
    AppDefinition(
        key="R-GM",
        name="graph_mst",
        suite="RainbowCake",
        category="Graph Processing",
        description="Minimum spanning tree computation on generated graphs.",
        library_builders=(libs.igraph_like,),
        hot=("sligraph.core", "sligraph.community"),
        hot_secondary=("sligraph.io",),
        never=("sligraph.drawing",),
        paper=PaperNumbers(1, 86, 3.74, 1.74, 1.70, 1.67, 1.64),
    ),
    AppDefinition(
        key="R-GPR",
        name="graph_pagerank",
        suite="RainbowCake",
        category="Graph Processing",
        description="PageRank over generated graphs.",
        library_builders=(libs.igraph_like,),
        hot=("sligraph.core",),
        hot_secondary=("sligraph.io", "sligraph.community"),
        never=("sligraph.drawing",),
        paper=PaperNumbers(1, 86, 3.74, 1.70, 1.62, 1.69, 1.64),
    ),
    AppDefinition(
        key="R-SA",
        name="sentiment_analysis_rc",
        suite="RainbowCake",
        category="Natural Language Processing",
        description="Sentiment analysis (nltk + TextBlob), the Table IV case study.",
        library_builders=(
            libs.nltk_like,
            libs.textblob_like,
            _generic("slpunkt", 46, 4, 180.0, 11_000.0, seed=102),
            _generic("slslang", 30, 3, 90.0, 6_000.0, seed=103),
        ),
        hot=(
            "slnltk.tokenize",
            "sltextblob.blob",
            "sltextblob.sentiments",
            "slpunkt",
        ),
        hot_secondary=(
            "slnltk.corpus",
            "slnltk.data",
            "slnltk.chunk",
            "slnltk.metrics",
            "sltextblob.taggers",
            "slslang",
        ),
        never=("slnltk.sem", "slnltk.stem", "slnltk.parse"),
        # nltk.tag is reachable from no entry at all: the orphan share.
        paper=PaperNumbers(4, 265, 5.13, 1.35, 1.33, 1.37, 1.34),
    ),
    # ------------------------------------------------------------------- FaaSLight
    AppDefinition(
        key="FL-PMP",
        name="price_ml_predict",
        suite="FaaSLight",
        category="Machine Learning",
        description="Price prediction inference over SciPy models.",
        library_builders=(
            libs.scipy_like,
            libs.numpy_like,
            _generic("slmlmodels", 312, 8, 800.0, 48_000.0, seed=104),
        ),
        hot=(
            "slscipy.stats",
            "slscipy.optimize",
            "slscipy.special",
            "slnumpy",
            "slmlmodels",
        ),
        rare=("slscipy.integrate",),
        never=("slscipy.io",),
        # scipy.sparse / signal / spatial are orphaned: reachable from no
        # entry, the statically-removable share Fig. 2 shows is unusually
        # large for FL-PMP.
        paper=PaperNumbers(3, 832, 7.98, 1.31, 1.30, 1.37, 1.36),
    ),
    AppDefinition(
        key="FL-SN",
        name="skimage_numpy",
        suite="FaaSLight",
        category="Image Processing",
        description="Image filtering pipeline over the skimage stand-in.",
        library_builders=(
            partial(libs.skimage_like, dependencies=("slnumpy",)),
            libs.numpy_like,
        )
        + tuple(
            _generic(
                f"slimgfilter{i}",
                23 if i < 2 else 22,
                4,
                95.0,
                5_800.0,
                seed=110 + i,
            )
            for i in range(12)
        ),
        hot=(
            "slskimage.filters",
            "slskimage.transform",
            "slskimage.feature",
            "slnumpy.core",
            "slnumpy.lib",
            "slnumpy.random",
            "slnumpy.linalg",
            "slimgfilter0",
            "slimgfilter1",
            "slimgfilter2",
            "slimgfilter3",
            "slimgfilter4",
            "slimgfilter5",
            "slimgfilter6",
            "slimgfilter7",
            "slimgfilter8",
        ),
        rare=("slskimage.io",),
        never=(
            "slskimage.segmentation",
            "slnumpy.ma",
            "slnumpy.fft",
            "slnumpy.polynomial",
            "slimgfilter9",
            "slimgfilter10",
            "slimgfilter11",
        ),
        # skimage.morphology + unlisted numpy clusters orphaned.
        paper=PaperNumbers(14, 656, 5.32, 1.41, 1.36, 1.41, 1.37),
    ),
    AppDefinition(
        key="FL-PWM",
        name="predict_wine_ml",
        suite="FaaSLight",
        category="Machine Learning",
        description="Wine-quality prediction (pandas + sklearn pipeline).",
        library_builders=(
            libs.pandas_like,
            libs.numpy_like,
            partial(libs.sklearn_like, dependencies=("slnumpy",)),
            _generic("sljoblib", 160, 6, 420.0, 26_000.0, seed=105),
            _generic("sldateutil", 170, 5, 380.0, 24_000.0, seed=106),
            _generic("slsix", 145, 4, 260.0, 16_000.0, seed=107),
        ),
        hot=(
            "slpandas.core",
            "slpandas.internals",
            "slnumpy.core",
            "slnumpy.lib",
            "slnumpy.linalg",
            "slsklearn.linear_model",
            "slsklearn.preprocessing",
            "slsklearn.metrics_",
            "slsklearn.utils",
            "sljoblib.part1",
            "sldateutil.part1",
            "sldateutil.part0",
            "slsix.part0",
        ),
        rare=("slpandas.compat", "slsklearn.model_selection"),
        never=(
            "slpandas.io",
            "slpandas.tseries",
            "slsklearn.ensemble",
            "sljoblib.part0",
            "slnumpy.ma",
            "slnumpy.fft",
            "slnumpy.random",
            "slnumpy.polynomial",
        ),
        # pandas.plotting, sklearn.datasets, remaining filler parts orphaned.
        paper=PaperNumbers(6, 1385, 7.57, 1.76, 1.68, 1.59, 1.52),
    ),
    AppDefinition(
        key="FL-TWM",
        name="train_wine_ml",
        suite="FaaSLight",
        category="Machine Learning",
        description="Wine-quality model training (exec-heavy variant).",
        library_builders=(
            libs.pandas_like,
            libs.numpy_like,
            partial(libs.sklearn_like, dependencies=("slnumpy",)),
            _generic("sljoblib", 160, 6, 420.0, 26_000.0, seed=105),
            _generic("sldateutil", 170, 5, 380.0, 24_000.0, seed=106),
            _generic("slsix", 145, 4, 260.0, 16_000.0, seed=107),
        ),
        hot=(
            "slpandas.core",
            "slpandas.internals",
            "slnumpy.core",
            "slnumpy.lib",
            "slnumpy.linalg",
            "slsklearn.linear_model",
            "slsklearn.preprocessing",
            "slsklearn.metrics_",
            "slsklearn.utils",
            "sljoblib.part1",
            "sldateutil.part1",
            "sldateutil.part0",
            "slsix.part0",
        ),
        rare=("slpandas.compat", "slsklearn.model_selection"),
        never=(
            "slpandas.io",
            "slpandas.tseries",
            "slsklearn.ensemble",
            "sljoblib.part0",
            "slnumpy.ma",
            "slnumpy.fft",
            "slnumpy.random",
            "slnumpy.polynomial",
        ),
        paper=PaperNumbers(6, 1385, 7.57, 1.79, 1.50, 1.72, 1.46),
    ),
    AppDefinition(
        key="FL-SA",
        name="sentiment_analysis_fl",
        suite="FaaSLight",
        category="Natural Language Processing",
        description="Sentiment analysis over pandas/scipy feature pipeline.",
        library_builders=(
            libs.pandas_like,
            libs.scipy_like,
            libs.numpy_like,
            _generic("sltweettok", 47, 4, 150.0, 9_000.0, seed=108),
            _generic("slregexlib", 47, 4, 150.0, 9_000.0, seed=109),
            _generic("slemolex", 47, 4, 150.0, 9_000.0, seed=120),
        ),
        hot=(
            "slpandas.core",
            "slpandas.internals",
            "slnumpy.core",
            "slnumpy.lib",
            "slscipy.stats",
            "slscipy.special",
            "slnumpy.linalg",
            "sltweettok",
            "slregexlib",
        ),
        never=(
            "slpandas.io",
            "slpandas.tseries",
            "slpandas.plotting",
            "slscipy.sparse",
            "slscipy.signal",
            "slscipy.integrate",
            "slscipy.optimize",
            "slnumpy.ma",
            "slnumpy.fft",
            "slnumpy.random",
            "slnumpy.polynomial",
            "slemolex",
        ),
        # scipy.spatial / scipy.io / pandas.compat orphaned.
        paper=PaperNumbers(6, 1081, 6.80, 2.01, 2.01, 2.15, 2.15),
    ),
    # --------------------------------------------------------------- FaaSWorkbench
    AppDefinition(
        key="FWB-CML",
        name="chameleon",
        suite="FaaSWorkbench",
        category="Package Management",
        description="HTML/table template rendering (pkg_resources heavy).",
        library_builders=(
            libs.pkg_resources_like,
            _generic("sltemplating", 30, 4, 280.0, 17_000.0, seed=111),
            _generic("slmarkup", 12, 3, 90.0, 5_500.0, seed=112),
        ),
        hot=("slpkgres.working_set", "slpkgres.markers", "sltemplating", "slmarkup.part0"),
        never=("slpkgres.vendor", "slmarkup.part1"),
        paper=PaperNumbers(3, 102, 4.80, 1.17, 1.05, 1.24, 1.07),
    ),
    AppDefinition(
        key="FWB-MT",
        name="model_training",
        suite="FaaSWorkbench",
        category="Machine Learning",
        description="Batch model training (execution dominated).",
        library_builders=(
            libs.scipy_like,
            libs.numpy_like,
            libs.sklearn_like,
            libs.pandas_like,
            _generic("slfeatlib", 67, 5, 200.0, 12_000.0, seed=113),
        ),
        hot=(
            "slscipy.stats",
            "slscipy.optimize",
            "slscipy.integrate",
            "slscipy.special",
            "slscipy.io",
            "slnumpy",
            "slsklearn.linear_model",
            "slsklearn.ensemble",
            "slsklearn.preprocessing",
            "slsklearn.model_selection",
            "slsklearn.metrics_",
            "slsklearn.utils",
            "slpandas.core",
            "slpandas.io",
            "slpandas.internals",
            "slpandas.compat",
            "slscipy.signal",
            "slfeatlib",
        ),
        never=("slpandas.tseries",),
        # scipy.sparse / spatial, pandas.plotting, sklearn.datasets orphaned.
        paper=PaperNumbers(5, 1307, 8.16, 1.21, 1.09, 1.20, 1.09),
    ),
    AppDefinition(
        key="FWB-MS",
        name="model_serving",
        suite="FaaSWorkbench",
        category="Machine Learning",
        description="Model inference service with a wide dependency fan-out.",
        library_builders=(
            libs.scipy_like,
            libs.numpy_like,
            libs.sklearn_like,
        )
        + tuple(
            _generic(
                f"slserving{i}", 50 if i < 6 else 49, 5, 120.0, 7_500.0, seed=130 + i
            )
            for i in range(13)
        ),
        hot=(
            "slscipy.stats",
            "slscipy.optimize",
            "slscipy.special",
            "slscipy.integrate",
            "slnumpy",
            "slsklearn.linear_model",
            "slsklearn.preprocessing",
            "slsklearn.metrics_",
            "slsklearn.utils",
            "slsklearn.model_selection",
            "slsklearn.ensemble",
        )
        + tuple(f"slserving{i}" for i in range(11)),
        rare=("slscipy.io",),
        never=("slscipy.signal", "slserving11", "slserving12"),
        # scipy.sparse / spatial + sklearn.datasets orphaned.
        paper=PaperNumbers(16, 1463, 7.97, 1.23, 1.10, 1.22, 1.10),
    ),
    # ------------------------------------------------------------------ Real-world
    AppDefinition(
        key="OCRmyPDF",
        name="ocr_my_pdf",
        suite="RealWorld",
        category="Document Processing",
        description="PDF OCR pipeline (pdfminer + 19 auxiliary libraries).",
        library_builders=(libs.pdfminer_like,)
        + tuple(
            _generic(f"slocraux{i}", 24 if i < 9 else 25, 4, 75.0, 4_600.0, seed=150 + i)
            for i in range(19)
        ),
        hot=(
            "slpdfminer.layout",
            "slpdfminer.pdfparser",
            "slpdfminer.converter",
        )
        + tuple(f"slocraux{i}" for i in range(11))
        + ("slocraux15", "slocraux16"),
        rare=("slpdfminer.cmap", "slocraux11"),
        never=(
            "slpdfminer.image",
            "slocraux12",
            "slocraux13",
            "slocraux14",
        ),
        # Imported by the handler, reachable from no entry at all:
        orphan_imports=("slocraux17", "slocraux18"),
        paper=PaperNumbers(20, 586, 6.40, 1.42, 1.19, 1.63, 1.00),
    ),
    AppDefinition(
        key="CVE",
        name="cve_bin_tool",
        suite="RealWorld",
        category="Security",
        description="Binary CVE scanner; xmlschema only needed for SBOM "
        "inputs (the Table V case study).",
        library_builders=(
            libs.xmlschema_like,
            libs.elementpath_like,
            _generic("slcvecheckers", 350, 6, 900.0, 54_000.0, seed=114),
            _generic("slrequestslib", 110, 5, 310.0, 19_000.0, seed=115),
            _generic("slsqlitelib", 90, 4, 260.0, 16_000.0, seed=116),
            _generic("slyamllib", 60, 4, 190.0, 12_000.0, seed=117),
        ),
        hot=("slcvecheckers", "slrequestslib", "slsqlitelib", "slyamllib"),
        rare=("slxmlschema",),
        paper=PaperNumbers(6, 760, 6.15, 1.27, 1.20, 1.08, 1.01),
    ),
    AppDefinition(
        key="SensorTD",
        name="sensor_telemetry",
        suite="RealWorld",
        category="IoT Predictive Analysis",
        description="Environmental sensor telemetry forecasting (Prophet).",
        library_builders=(
            libs.prophet_like,
            libs.pandas_like,
            libs.numpy_like,
            _generic("slmqttlib", 10, 3, 40.0, 2_500.0, seed=118),
            _generic("slsensorfmt", 7, 3, 30.0, 2_000.0, seed=119),
        ),
        hot=(
            "slprophet.models",
            "slprophet.forecaster",
            "slpandas.core",
            "slnumpy.core",
            "slnumpy.lib",
            "slmqttlib",
            "slsensorfmt",
        ),
        never=(
            "slprophet.diagnostics",
            "slprophet.plot",
            "slprophet.serialize",
            "slpandas.io",
            "slpandas.tseries",
            "slnumpy.ma",
            "slnumpy.fft",
            "slnumpy.random",
            "slnumpy.polynomial",
            "slnumpy.linalg",
        ),
        # pandas.plotting / compat orphaned.
        paper=PaperNumbers(5, 777, 5.90, 1.99, 1.09, 1.83, 1.10),
    ),
    AppDefinition(
        key="HFP",
        name="heart_failure_prediction",
        suite="RealWorld",
        category="Health Care",
        description="Heart-failure risk prediction (SciPy/sklearn).",
        library_builders=(
            libs.scipy_like,
            libs.numpy_like,
            libs.sklearn_like,
            _generic("slhealthfmt", 82, 6, 240.0, 15_000.0, seed=121),
            _generic("slriskmodels", 80, 6, 230.0, 14_000.0, seed=122),
        ),
        hot=(
            "slscipy.stats",
            "slscipy.optimize",
            "slscipy.integrate",
            "slscipy.special",
            "slscipy.io",
            "slnumpy.core",
            "slnumpy.lib",
            "slnumpy.linalg",
            "slnumpy.random",
            "slsklearn.linear_model",
            "slsklearn.preprocessing",
            "slsklearn.model_selection",
            "slsklearn.metrics_",
            "slsklearn.utils",
            "slhealthfmt",
            "slriskmodels",
        ),
        never=(
            "slscipy.sparse",
            "slscipy.signal",
            "slsklearn.ensemble",
            "slnumpy.ma",
            "slnumpy.fft",
            "slnumpy.polynomial",
        ),
        # scipy.spatial + sklearn.datasets orphaned.
        paper=PaperNumbers(5, 982, 8.79, 1.38, 1.30, 1.46, 1.39),
    ),
    # ------------------------------------------ apps with no meaningful inefficiency
    AppDefinition(
        key="R-FC",
        name="file_compress",
        suite="RainbowCake",
        category="Utilities",
        description="File compression: its single small library is fully used.",
        library_builders=(_generic("slzlib", 25, 3, 60.0, 3_800.0, seed=123),),
        hot=("slzlib",),
        exec_budget_ms=300.0,
    ),
    AppDefinition(
        key="FWB-UP",
        name="uploader",
        suite="FaaSWorkbench",
        category="Utilities",
        description="Object uploader: I/O bound, minimal dependencies.",
        library_builders=(_generic("slhttplib", 40, 4, 100.0, 6_200.0, seed=124),),
        hot=("slhttplib",),
        exec_budget_ms=250.0,
    ),
    AppDefinition(
        key="FWB-JS",
        name="json_serde",
        suite="FaaSWorkbench",
        category="Utilities",
        description="JSON serialization micro-benchmark; everything is hot.",
        library_builders=(_generic("sljsonlib", 20, 3, 45.0, 2_800.0, seed=125),),
        hot=("sljsonlib",),
        exec_budget_ms=80.0,
    ),
    AppDefinition(
        key="FL-HG",
        name="http_gateway",
        suite="FaaSLight",
        category="Utilities",
        description="Request router with one tiny fully-used dependency.",
        library_builders=(_generic("slrouterlib", 15, 3, 35.0, 2_200.0, seed=126),),
        hot=("slrouterlib",),
        exec_budget_ms=60.0,
    ),
    AppDefinition(
        key="FWB-MP",
        name="matrix_multiply",
        suite="FaaSWorkbench",
        category="Scientific Computing",
        description="Dense matrix multiplication: numpy fully exercised.",
        library_builders=(libs.numpy_like,),
        hot=("slnumpy",),
        exec_budget_ms=2_000.0,
    ),
)

#: The applications where the paper (and this reproduction) find and fix
#: inefficiencies — the 17 rows of Table II.
OPTIMIZABLE_KEYS: tuple[str, ...] = tuple(
    definition.key for definition in APP_DEFINITIONS if definition.paper is not None
)

#: The five FaaSLight apps of the Fig. 2 / Table III studies.
FAASLIGHT_STUDY_KEYS: tuple[str, ...] = (
    "FL-SA",
    "FL-PWM",
    "FL-TWM",
    "FL-PMP",
    "FL-SN",
)


def app_by_key(key: str) -> AppDefinition:
    for definition in APP_DEFINITIONS:
        if definition.key == key:
            return definition
    known = ", ".join(definition.key for definition in APP_DEFINITIONS)
    raise SpecError(f"unknown application key {key!r} (known: {known})")


def benchmark_apps(keys: tuple[str, ...] | None = None) -> list[BenchmarkApp]:
    """Instantiate (a subset of) the suite."""
    selected = APP_DEFINITIONS if keys is None else [app_by_key(k) for k in keys]
    return [instantiate(definition) for definition in selected]
