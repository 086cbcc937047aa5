"""Structure + determinism lint over ``src/repro`` (tier-1; reads source
text, imports only to inspect one signature).

(a) One runner, one rewind: the failure ladder and the recovery
    primitives live in ``streaming/supervisor.py`` only, the names of
    the deleted second runner and second rewind appear nowhere, the
    executor has no ``columnar`` switch, and one function rewinds source
    positions.
(b) Determinism: library code reads no wall clock and no unseeded
    randomness — ``random``/``uuid``/``datetime``/``time`` imports and
    ``time.time(`` are confined to ``util/``, and the executor's
    deleted lane-busy model stays deleted (parallelism is read from
    per-lane item counts, ``lane_items``).
(c) No append or fetch escapes the injector: ``ChaosLogCluster``
    forwards unknown attributes to the cluster it wraps, so every
    public ``append*`` / ``read*`` method of ``LogCluster`` has to be
    defined on the proxy itself.
(d) One executor: ``streaming/runtime.py`` is gone and exactly one
    class drains cycles and restores checkpoints.
(e) Layering: the engine and the store run without the chaos package —
    an injector is handed in, never imported.
(f) The executor *has* a plan, sources and channels: split state lives
    in ``streaming/sources.py`` (``Split``), channel state in
    ``streaming/transport.py`` (``Channel``), the sixteen parallel
    dictionaries they replaced and the three deleted options stay
    deleted, and every ``streaming/`` module fits a line budget.
(g) One cut: ``barrier.Cut`` is the only code that builds a
    ``ParallelCheckpoint``, the coordinator's capture/ack callbacks and
    its second drive-to-finalize loop stay deleted, and no coordinator
    method takes the executor it already has.
(h) One column set: ``store/analytical.py`` keeps its columns in one
    append-only buffer set — no per-epoch segment list, no consolidated
    copy rebuilt per install, no ``np.isin`` scan of the key column —
    and fits a line budget.
(i) One reshape: ``_build_executor`` and ``reshape`` are defined once,
    in ``streaming/supervisor.py``, which is the only control-plane
    module that builds a ``ParallelExecutor``; nothing subclasses
    ``Supervisor``, and neither the autoscaler nor ``geo/`` has a
    ``run``/``step`` loop of its own — they are controllers.
(j) One fold: every ``WindowAggregateOperator`` method that reads
    its window table (``self.state``) is the fold, the restore or
    ``__init__``, or calls the fold before its first read, and the
    table's snapshots call the fold first (its ``settle`` hook) — parked
    rows never go unseen — and one function groups rows by (key,
    window) and one loop extends accumulators from the groups.
(k) One checkpoint protocol: keyed state lives in ``op.state`` (a
    ``KeyedState``), which the executor snapshots by key group itself;
    no operator defines a key-grouped snapshot or restore of its own,
    and the executor's state read and restore do not branch on
    ``requires_shuffle`` — which no operator sets: it is derived from
    whether ``state`` holds a table, so the hash shuffle and the
    by-key-group checkpoint cannot disagree.
(l) A frame pays only for the frame: in ``render/compositor.py`` the
    O(n²) ``clutter_metrics`` is referenced only inside ``OverlayFrame``
    (its lazily computed ``layout``), and ``render/scene.py`` allocates
    no ``np.eye``/``np.zeros`` inside a function — only in field
    defaults and module constants.
"""

import ast
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
SUPERVISOR = "streaming/supervisor.py"

LADDER = re.compile(r"except\s+\(?[\w\s,.]*\b(OperatorCrash|CoordinatorDown)\b")
PRIMITIVES = re.compile(
    r"def\s+(_check_budget|_recover|_rebuild_coordinator|_full_equiv"
    r"|_build_coordinator)\b")
NONDETERMINISTIC = re.compile(
    r"^\s*(import|from)\s+(random|uuid|datetime)\b|\btime\.time\(",
    re.MULTILINE)
WALL_CLOCK = re.compile(r"^\s*(import\s+time\b|from\s+time\s+import)",
                        re.MULTILINE)


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text()


def _offenders(pattern, allowed):
    """``file:line: match`` for every hit outside the ``allowed`` files."""
    hits = []
    for rel, text in _sources():
        if rel in allowed:
            continue
        for match in pattern.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            hits.append(f"{rel}:{line}: {match.group(0).strip()}")
    return hits


def test_failure_ladder_lives_in_the_supervisor_only():
    assert _offenders(LADDER, {SUPERVISOR}) == []


def test_the_second_runner_and_rewind_stay_deleted():
    gone = re.compile(r"restore_region|run_with_recovery|RecoveryReport")
    hits = [f"{path.relative_to(ROOT)}: {match.group(0)}"
            for top in ("src", "tools", "examples", "tests")
            for path in sorted((ROOT / top).rglob("*.py"))
            if path != Path(__file__).resolve()
            for match in gone.finditer(path.read_text())]
    assert hits == []
    from repro.streaming import ParallelExecutor
    assert "columnar" not in inspect.signature(
        ParallelExecutor.__init__).parameters
    rewinds = [f"{rel}:{fn.name}" for rel, text in _sources()
               for fn in ast.walk(ast.parse(text))
               if isinstance(fn, ast.FunctionDef)
               and re.search(r"\.position = pos$", ast.unparse(fn),
                             re.MULTILINE)]
    assert rewinds == ["streaming/sources.py:rewind"]


def test_the_element_run_kernel_and_the_chaining_switch_stay_deleted():
    """An operator has ``process`` and at most ``_run_columnar``; a job
    has ``batch_mode`` and nothing else to pick a plan with."""
    kernel = re.compile(r"def _run\(self, elements|_run_vectorized|_segmented")
    assert _offenders(kernel, set()) == []
    # the base Operator's is the only one the built-ins have
    operators = (SRC / "streaming/operators.py").read_text()
    assert operators.count("def process_batch(") == 1
    from repro.geo import GeoController, GeoDeployment
    from repro.obs import traced_reference_run
    from repro.streaming import (
        Autoscaler,
        ParallelExecutor,
        Supervisor,
        run_coordinated,
    )
    for entry in (ParallelExecutor.__init__, run_coordinated,
                  Supervisor.__init__, Autoscaler.__init__,
                  GeoController.__init__, GeoDeployment,
                  traced_reference_run):
        assert "chaining" not in inspect.signature(entry).parameters, entry
    assert [str(path.relative_to(ROOT))
            for top in ("tools", "examples", "tests")
            for path in sorted((ROOT / top).rglob("*.py"))
            if path != Path(__file__).resolve()
            and "chaining" "=" in path.read_text()] == []


def test_recovery_primitives_are_defined_once():
    assert _offenders(PRIMITIVES, {SUPERVISOR}) == []
    supervisor = (SRC / SUPERVISOR).read_text()
    names = [m.group(1) for m in PRIMITIVES.finditer(supervisor)]
    assert len(names) == len(set(names))


def test_no_wall_clock_or_unseeded_randomness_outside_util():
    library = {rel for rel, _ in _sources() if not rel.startswith("util/")}
    util = {rel for rel, _ in _sources()} - library
    assert _offenders(NONDETERMINISTIC, util) == []
    assert _offenders(WALL_CLOCK, util) == []
    execution = (SRC / "streaming/execution.py").read_text()
    gone = re.findall(r"\b(?:lane_busy_s|_lane_cycle|modeled_makespan_s"
                      r"|_end_cycle|serial_busy_s|modeled_speedup)\b",
                      execution)
    assert gone == []


def test_there_is_one_executor():
    assert not (SRC / "streaming/runtime.py").exists()
    executors = []
    for rel, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                methods = {item.name for item in node.body
                           if isinstance(item, ast.FunctionDef)}
                if {"_drain_cycle", "restore"} <= methods:
                    executors.append(f"{rel}:{node.name}")
    assert executors == ["streaming/execution.py:ParallelExecutor"]
    init = ast.parse((SRC / "streaming/__init__.py").read_text())
    (exported,) = [ast.literal_eval(node.value) for node in init.body
                   if isinstance(node, ast.Assign)
                   and node.targets[0].id == "__all__"]
    assert not {"Executor", "Checkpoint", "ColumnarStream"} & set(exported)


def test_engine_and_store_do_not_import_chaos():
    imports_chaos = re.compile(
        r"^\s*(from|import)\s+(repro\.chaos|\.\.chaos|\.\.\.chaos)\b",
        re.MULTILINE)
    others = {rel for rel, _ in _sources()
              if not rel.startswith(("store/", "streaming/"))}
    assert _offenders(imports_chaos, others) == []


def _public_methods(rel, class_name):
    tree = ast.parse((SRC / rel).read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == class_name]
    return {node.name for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def test_chaos_proxy_defines_every_data_plane_method():
    data_plane = {name for name in _public_methods("eventlog/broker.py",
                                                   "LogCluster")
                  if name.startswith(("append", "read"))}
    assert {"append", "append_row", "appenders", "append_idempotent",
            "read", "read_columns"} <= data_plane
    proxied = _public_methods("chaos/injector.py", "ChaosLogCluster")
    assert data_plane - proxied == set()


# -- (f) plan / sources / transport -------------------------------------------

STREAMING = "streaming/"
#: what ``Split`` and ``Channel`` replaced, as attribute names
CONTAINERS = re.compile(
    r"\b(_split_buffers|_split_positions|_split_batches|_split_sorted"
    r"|_finished_splits|_merge_cache|_source_assignment|_shed"
    r"|_shed_by_source|_channels|_channel_wm|_aligned_wm|_send_seq"
    r"|_recv_seq|_ooo|_held)\b")
#: the line budget of one ``streaming/`` module; a PR that grows a file
#: past it raises the number here and says why
MAX_MODULE_LINES = 1300


def test_split_and_channel_state_is_not_kept_in_parallel_containers():
    outside = {rel for rel, _ in _sources() if not rel.startswith(STREAMING)}
    assert _offenders(CONTAINERS, outside) == []
    assert _offenders(re.compile(r"profiler"), outside) == []
    assert _offenders(re.compile(r"_BatchSplit"),
                      outside | {"streaming/sources.py"}) == []


def test_execution_module_holds_the_executor_and_nothing_else():
    tree = ast.parse((SRC / "streaming/execution.py").read_text())
    classes = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    assert classes == {"SinkBuffer", "ParallelExecutor"}
    (executor,) = [node for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "ParallelExecutor"]
    methods = [item for item in executor.body
               if isinstance(item, ast.FunctionDef)]
    attributes = {target.attr for node in ast.walk(executor)
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for target in (node.targets if isinstance(node, ast.Assign)
                                 else [node.target])
                  if isinstance(target, ast.Attribute)
                  and isinstance(target.value, ast.Name)
                  and target.value.id == "self"}
    assert len(methods) <= 45, len(methods)
    assert len(attributes) <= 32, sorted(attributes)
    (restore,) = [m for m in methods if m.name == "restore"]
    fields = {"queue", "watermark", "send_seq", "recv_seq", "ooo",
              "buffer", "position", "mergeable", "finished"}
    touched = {node.attr for node in ast.walk(restore)
               if isinstance(node, ast.Attribute)}
    assert not touched & fields, touched & fields


def test_the_three_unset_options_stay_deleted():
    gone = {"profiler", "partitioner", "cycle_seconds"}
    hits = []
    for rel, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.arg) and node.arg in gone:
                hits.append(f"{rel}:{node.lineno}: {node.arg}")
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)
                  and node.target.id in gone):
                hits.append(f"{rel}:{node.lineno}: {node.target.id}")
    assert hits == []


def test_streaming_modules_fit_their_line_budget():
    over = {rel: len(text.splitlines()) for rel, text in _sources()
            if rel.startswith(STREAMING)
            and len(text.splitlines()) > MAX_MODULE_LINES}
    assert over == {}


# -- (g) one cut --------------------------------------------------------------

#: what the executor writing the cut made unnecessary
GONE_WITH_THE_CUT = {
    "on_subtask_ack", "on_sink_ack", "on_spill_open", "on_spill",
    "on_spill_closed", "capture_channel_wm", "capture_aligned_wm",
    "capture_rr", "capture_data_counts", "_Pending", "_pending_for",
    "final_checkpoint", "reset_all"}


def test_every_checkpoint_is_built_by_the_cut():
    sites = _offenders(re.compile(r"\bParallelCheckpoint\("), set())
    assert [site.split(":")[0] for site in sites] == ["streaming/barrier.py"]
    defined = [f"{rel}:{node.name}" for rel, text in _sources()
               for node in ast.walk(ast.parse(text))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in GONE_WITH_THE_CUT]
    assert defined == []


def test_coordinator_methods_take_no_executor():
    tree = ast.parse((SRC / "streaming/coordinator.py").read_text())
    (coordinator,) = [node for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "CheckpointCoordinator"]
    takes = [fn.name for fn in coordinator.body
             if isinstance(fn, ast.FunctionDef) and fn.name != "__init__"
             and any(a.arg == "executor" for a in fn.args.args
                     + fn.args.kwonlyargs)]
    assert takes == []


# -- (h) one column set -------------------------------------------------------

#: the analytical store's line budget (its size when it last kept one
#: segment per epoch)
MAX_ANALYTICAL_LINES = 296


def test_the_analytical_store_keeps_one_column_set():
    text = (SRC / "store/analytical.py").read_text()
    assert re.findall(r"np\.isin\b|_consolidated|_segments", text) == []
    assert len(text.splitlines()) <= MAX_ANALYTICAL_LINES


# -- (i) one reshape ----------------------------------------------------------

#: the modules that supervise, scale or move a job
CONTROL_PLANE = (SUPERVISOR, "streaming/autoscale.py", "geo/")


def _definitions(kind, prefixes=("",)):
    """(rel, node) for every ``kind`` node in modules under ``prefixes``."""
    return [(rel, node) for rel, text in _sources()
            if rel.startswith(prefixes)
            for node in ast.walk(ast.parse(text)) if isinstance(node, kind)]


def test_one_supervisor_builds_and_reshapes():
    for name in ("_build_executor", "reshape"):
        sites = [rel for rel, fn in _definitions(ast.FunctionDef)
                 if fn.name == name]
        assert sites == [SUPERVISOR], (name, sites)
    builds = [rel for rel, text in _sources()
              if rel.startswith(CONTROL_PLANE)
              for _ in re.finditer(r"\bParallelExecutor\(", text)]
    assert builds == [SUPERVISOR]
    subclasses = [f"{rel}:{cls.name}"
                  for rel, cls in _definitions(ast.ClassDef)
                  if any(ast.unparse(base).rpartition(".")[2] == "Supervisor"
                         for base in cls.bases)]
    assert subclasses == []
    loops = [f"{rel}:{fn.name}" for rel, fn in _definitions(
                 ast.FunctionDef, ("streaming/autoscale.py", "geo/"))
             if fn.name in ("run", "step")]
    assert loops == []


# -- (j) one fold -------------------------------------------------------------

WINDOW = "streaming/window_operator.py"
#: where the window operator keeps its window table
WINDOW_TABLE = "state"
#: the fold itself, the restore that drops parked rows, and the
#: constructor: the only methods that may read the table unfolded
READ_UNFOLDED = {"__init__", "_fold", "_fold_rows", "restore"}


def _reads_self(node, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _called(node):
    """The name a call calls: ``f`` for ``f(...)`` and ``x.f(...)``."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _unfolded_readers(source):
    """Methods of ``WindowAggregateOperator`` in ``source`` that read
    the window table before (or without) calling the fold."""
    tree = ast.parse(source)
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
              and node.name == "WindowAggregateOperator"]
    unfolded = []
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name in READ_UNFOLDED:
            continue
        reads = [node.lineno for node in ast.walk(fn)
                 if _reads_self(node, WINDOW_TABLE)]
        folds = [node.lineno for node in ast.walk(fn)
                 if isinstance(node, ast.Call)
                 and _reads_self(node.func, _called(node))
                 and _called(node).startswith("_fold")]
        if reads and (not folds or min(folds) > min(reads)):
            unfolded.append(fn.name)
    return unfolded


def test_every_reader_of_the_windows_folds_first():
    source = (SRC / WINDOW).read_text()
    assert _unfolded_readers(source) == []
    # the table really lives where the lint looks, and whatever copies
    # it from outside (a checkpoint, a capture) folds first
    readers = {fn.name for fn in ast.walk(ast.parse(source))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if _reads_self(node, WINDOW_TABLE)}
    assert {"process", "on_watermark", "_fold_rows"} <= readers
    assert re.search(r"self\.state = KeyedState\([^)]*settle=self\._fold\b",
                     source)


def test_the_fold_lint_catches_an_unfolded_reader():
    source = (SRC / WINDOW).read_text()
    # the firing scan with its fold taken out, and a new method reading
    # the table before it folds
    unfolded = source.replace(
        "        self._fold()\n        table = self.state\n",
        "        table = self.state\n", 1)
    assert unfolded != source
    assert _unfolded_readers(unfolded) == ["on_watermark"]
    late = source.replace(
        "    def snapshot(self) -> Any:\n",
        "    def peek(self) -> int:\n"
        "        n = len(self.state)\n"
        "        self._fold()\n"
        "        return n\n\n"
        "    def snapshot(self) -> Any:\n", 1)
    assert late != source
    assert _unfolded_readers(late) == ["peek"]


def test_one_grouping_and_one_accumulating_loop():
    tree = ast.parse((SRC / WINDOW).read_text())

    def callers(target):
        return sorted({fn.name for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef)
                       for node in ast.walk(fn)
                       if isinstance(node, ast.Call)
                       and _called(node) == target})
    assert callers("argsort") == ["_groups"]
    assert callers("_sum_extend") == ["_fold_rows"]


# -- (k) one checkpoint protocol ----------------------------------------------

#: the per-operator checkpoint protocols the keyed-state table replaced
GONE_WITH_THE_TABLE = re.compile(
    r"def\s+(snapshot_key_groups|scalar_snapshot|restore_parallel"
    r"|restore_rescaled)\b")


def test_keyed_state_is_checkpointed_through_the_table_only():
    assert _offenders(GONE_WITH_THE_TABLE, set()) == []
    tree = ast.parse((SRC / "streaming/execution.py").read_text())
    branching = [fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)
                 and fn.name in ("_read_state", "restore")
                 and "requires_shuffle" in ast.unparse(fn)]
    assert branching == []


def test_keyed_means_having_a_table():
    assert _offenders(re.compile(r"\brequires_shuffle\s*=[^=]"),
                      set()) == []
    from repro.streaming import (
        IntervalJoinOperator, MapOperator, PatternOperator, PatternStep,
        ReduceOperator, TumblingWindows, WindowAggregateOperator)
    step = PatternStep("any", lambda v: True)
    keyed = [ReduceOperator("r", lambda a, b: a + b),
             WindowAggregateOperator("w", TumblingWindows(10.0), "sum"),
             IntervalJoinOperator("j", 0.0, 1.0),
             PatternOperator("p", [step, PatternStep("b", lambda v: True)],
                             within_s=1.0)]
    assert all(op.requires_shuffle and op.state is not None for op in keyed)
    plain = MapOperator("m", lambda v: v)
    assert not plain.requires_shuffle and plain.state is None


# -- (l) a frame pays only for the frame -------------------------------------

def _enclosing_classes(tree, name):
    """Name of the class around each reference to ``name`` (None at
    module or function level outside any class)."""
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name) and node.id == name:
            found.append(cls)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def test_layout_metrics_are_computed_on_read_only():
    tree = ast.parse((SRC / "render/compositor.py").read_text())
    assert _enclosing_classes(tree, "clutter_metrics") == ["OverlayFrame"]


def _allocations_in_functions(text):
    """``np.eye(``/``np.zeros(`` calls inside any ``def`` (lambdas in
    field defaults and module-level constants are not inside one)."""
    hits = []
    for fn in ast.walk(ast.parse(text)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        hits += [f"{fn.name}:{node.lineno}" for node in ast.walk(fn)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("eye", "zeros")
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "np"]
    return sorted(set(hits))


def test_the_scene_walk_allocates_no_identity_per_call():
    assert _allocations_in_functions(
        (SRC / "render/scene.py").read_text()) == []
    caught = _allocations_in_functions(
        "import numpy as np\n_I = np.eye(3)\n"
        "def walk(r=None):\n    return np.eye(3) if r is None else r\n")
    assert caught == ["walk:4"]
