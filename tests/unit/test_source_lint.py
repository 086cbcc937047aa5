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
    window), one loop extends accumulators from the groups, and one
    scan (``_fire``) pops ripe windows into their results.
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
(m) One runner behind the facade: nothing under ``core/`` or ``apps/``
    names ``ParallelExecutor``, and of those packages only
    ``core/pipeline.py`` (its ``run_job``) calls ``run_coordinated`` —
    every facade and app job runs supervised through it.
(n) One place runs a subtask: ``guard_batch`` / ``guard_item`` are
    called from ``streaming/chain.py`` only (and from each other in
    ``streaming/errors.py``, which defines them); nothing under ``src/``
    asks whether an operator ``isinstance`` of ``ChainedOperator`` —
    every execution subtask is one; and the ``"op[i]" -> "op"`` rule
    (``rpartition("[")`` / ``rfind("[")``) is written once, in
    ``operators.logical_name``.
(o) One sink: every sink is a 2PC ``TransactionalSink`` — the deleted
    ``SinkBuffer`` is named nowhere, ``transactional_sinks`` survives
    only as ``ParallelExecutor``'s one parameter (no call passes it but
    the test that it refuses ``False``), and no commit listener asks
    whether it was handed a plain list instead of the sink.  Every log
    source yields batches the same way: ``parallel_log_source``'s
    ``columnar`` refuses ``False``, and only the benchmark passes it.
(p) Only options a caller sets: a checkpoint is always aligned, a
    channel never drops and a failover region is a connected component,
    so ``unaligned_after``, ``drop_on_overflow``, ``replayable`` and
    what only they reached are named nowhere under ``src/``, ``tools/``,
    ``benchmarks/`` or ``examples/``.  Key groups and channel capacity
    are module constants (``shuffle.KEY_GROUPS``,
    ``transport.CHANNEL_CAPACITY``) and the hot tier keeps no TTL, no
    memtable and no sorted runs, so ``ttl_s``, ``tier_fanout``,
    ``TIER_FANOUT``, ``memtable_limit``, ``SortedRun``,
    ``channel_capacity``, ``DEFAULT_KEY_GROUPS`` and the at-least-once
    ``log_sink`` are named nowhere there either, nor are the log's
    retention and compaction (``retention_bytes``,
    ``retention_seconds``, ``compacted=``, ``run_retention``,
    ``run_compaction``) or session windows (``SessionWindows``,
    ``_merge_sessions``), which only tests switched on; no function under
    ``src/`` takes ``num_key_groups`` and no store class a ``clock``;
    and the engine's and the serving store's constructors, and
    ``serve_topic`` and ``compile_execution_graph``, take no more
    parameters than they need.  Nor are the modes named there that only
    test-set values reached: ``recommend(exclude_seen=False)``, a region
    partition (``partition_out``, ``partition_in``), a retry filter
    (``retryable``), a retry that escalates to another policy
    (``escalate``) and a per-budget x-ray cost (``xray_surcharge_ms``).
    Nor are the features no product run executed: the interval join
    (``IntervalJoinOperator``), the keyed reduce (``ReduceOperator``)
    and the shed tier (``ShedPolicy``, ``set_shedding``,
    ``shed_state``).
(q) A job launch pays for no graph library: nothing under
    ``streaming/`` imports ``networkx`` — ``JobGraph.validate`` orders
    the graph with its own Kahn pass (networkx stays for ``simnet/``).
(r) Every def has a caller: each module-level ``def`` or ``class``
    under ``src/``, and each function defined directly in a class body
    (methods, properties, static and class methods), is used by code in
    ``src/``, ``benchmarks/``, ``examples/`` or ``tools/`` (never a
    ``tests`` directory) that is itself reached — by name, attribute or
    identifier string, so ``getattr(obj, "name")`` reaches ``name``.  A
    method counts once its class is reached; dunders are always live.
    An ``__init__`` re-export (eager or ``lazy_exports``), a docstring
    or ``__all__`` is no caller.  What only tests reach is deleted, or
    sits on an allow-list with its reason (``Class.method`` for a
    method), and an allow-listed body (a class's methods with it)
    counts as live; the list only shrinks, because a listed name that
    gains a caller fails too.
(s) Every parameter has a caller: each defaulted parameter of a def
    under ``src/`` (``__main__.py`` and every package), and each
    defaulted field of a frozen dataclass — a parameter of the
    constructor it gets, by keyword or by position in field order — is
    set to a value other than its default by code lint (r) counts as
    reached: by keyword, position, ``*args`` or ``**kwargs``, matched by
    name as lint (r) matches.  A frozen instance is set only at
    construction, so a field no caller sets is a constant in disguise;
    a mutable dataclass holds state and is not counted, nor is a
    ``ClassVar`` or a ``field(init=False)``.  A parameter forwarded from
    an enclosing def's parameter with the same default is set only if
    that one is.  Three kinds are exempt, each named with its reason: a
    seam through which tests substitute a fake or a command line, the
    parameters of lint (r)'s allow-listed defs, and a keyword the
    end-to-end benchmark passes and the library refuses to vary
    (``parallel_log_source(columnar)``).
(t) Every def runs: each method and module-level function that lint (r)
    counts as reached (its allow-listed defs aside) was entered by a
    product run — an example, the CLI, a bench or a gate tool's demo —
    as ``tools/reach.txt`` records it (``make reach`` regenerates the
    file under ``sys.setprofile`` and fails when it is stale), or sits
    on an allow-list with its reason: a fault path, a seam, the
    per-item reference, a CLI-only path, a dunder, an open item's
    building block, or library API only tests run.  The list only
    shrinks: a listed def that a run enters, or that is deleted,
    leaves it.  A name no longer keeps a def alive: a method named
    ``join`` that only tests call fails here although ``str.join``
    satisfies lint (r).
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
                   and getattr(node.targets[0], "id", None) == "__all__"]
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
    r"|_finished_splits|_merge_cache|_source_assignment"
    r"|_channels|_channel_wm|_aligned_wm|_send_seq"
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
    assert classes == {"ParallelExecutor"}
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
    assert len(methods) <= 41, len(methods)
    assert len(attributes) <= 30, sorted(attributes)
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
    assert {"process", "_fire", "_fold_rows"} <= readers
    assert re.search(r"self\.state = KeyedState\([^)]*settle=self\._fold\b",
                     source)


def test_the_fold_lint_catches_an_unfolded_reader():
    source = (SRC / WINDOW).read_text()
    # the firing scan with its fold taken out, and a new method reading
    # the table before it folds
    unfolded = source.replace(
        "        self._fold()\n        table = self.state._data\n",
        "        table = self.state._data\n", 1)
    assert unfolded != source
    assert _unfolded_readers(unfolded) == ["_fire"]
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
    # and one firing scan: whatever leaves the window (Elements for the
    # per-item reference, a batch for the batched path) is its columns
    assert callers("WindowResult") == ["_fire"]


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
        MapOperator, PatternOperator, PatternStep, TumblingWindows,
        WindowAggregateOperator)
    step = PatternStep("any", lambda v: True)
    keyed = [WindowAggregateOperator("w", TumblingWindows(10.0), "sum"),
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


# -- (m) one runner behind the facade ----------------------------------------

FACADE = ("core/", "apps/")


def test_facade_and_apps_run_jobs_through_run_job_only():
    facade = {rel for rel, _ in _sources() if rel.startswith(FACADE)}
    outside = {rel for rel, _ in _sources()} - facade
    assert _offenders(re.compile(r"\bParallelExecutor\b"), outside) == []
    runners = _offenders(re.compile(r"\brun_coordinated\b"),
                         outside | {"core/pipeline.py"})
    assert runners == []
    assert "run_coordinated(" in (SRC / "core/pipeline.py").read_text()


# -- (n) one place runs a subtask ---------------------------------------------

GUARD_CALL = re.compile(r"(?<!def )\bguard_(batch|item)\(")
CHAIN_CHECK = re.compile(r"isinstance\([^)]*\bChainedOperator\b")


def _bracket_cuts(text):
    """The functions that cut a name at its last ``[``."""
    return [func.name for func in ast.walk(ast.parse(text))
            if isinstance(func, ast.FunctionDef)
            for call in ast.walk(func)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("rpartition", "rfind")
            and call.args and isinstance(call.args[0], ast.Constant)
            and call.args[0].value == "["]


def test_the_chain_is_the_one_place_policies_are_applied():
    assert _offenders(GUARD_CALL, {"streaming/chain.py",
                                   "streaming/errors.py"}) == []
    assert GUARD_CALL.search((SRC / "streaming/chain.py").read_text())
    assert _offenders(CHAIN_CHECK, set()) == []


def test_the_subtask_name_rule_is_written_once():
    cuts = {rel: _bracket_cuts(text) for rel, text in _sources()}
    assert {rel: names for rel, names in cuts.items() if names} \
        == {"streaming/operators.py": ["logical_name"]}
    assert _bracket_cuts(
        "def base(n):\n    return n.rpartition('[')[0]\n") == ["base"]


# -- (o) one sink -------------------------------------------------------------

TREES = ("src", "tests", "tools", "examples")


def _tree_files():
    for top in TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != Path(__file__).resolve():
                yield path.relative_to(ROOT).as_posix(), path.read_text()


def test_the_plain_sink_buffer_stays_deleted():
    assert [rel for rel, text in _tree_files() if "SinkBuffer" in text] \
        == []
    assert _offenders(re.compile(r"isinstance\(committed,\s*list\)"),
                      set()) == []


def test_transactional_sinks_is_one_parameter_nobody_passes():
    params, passed, other = [], [], []
    for rel, text in _tree_files():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                params += [f"{rel}:{node.name}"
                           for a in node.args.args + node.args.kwonlyargs
                           if a.arg == "transactional_sinks"]
            elif (isinstance(node, ast.keyword)
                  and node.arg == "transactional_sinks"):
                passed.append(f"{rel}:{ast.unparse(node.value)}")
            elif (isinstance(node, (ast.Attribute, ast.Name))
                  and "transactional_sinks" in (getattr(node, "attr", None),
                                                getattr(node, "id", None))):
                other.append(f"{rel}:{node.lineno}")
    assert params == ["src/repro/streaming/execution.py:__init__"]
    # the one call: the test that the plain-sink value is refused
    assert passed == ["tests/unit/test_txn_sink.py:False"]
    # read once, by the constructor's refusal; never stored
    assert [site.split(":")[0] for site in other] \
        == ["src/repro/streaming/execution.py"]
    # parallel_log_source(columnar=) is the same kind of keyword: the
    # end-to-end benchmark passes True, and False is refused
    from repro.eventlog import LogCluster, TopicConfig
    from repro.streaming import parallel_log_source
    from repro.util.errors import ConfigError
    cluster = LogCluster(num_brokers=1)
    cluster.create_topic(TopicConfig("t", partitions=1))
    try:
        parallel_log_source(cluster, "t", columnar=False)
    except ConfigError:
        pass
    else:
        raise AssertionError("parallel_log_source accepted columnar=False")
    passes = [f"{path.relative_to(ROOT)}:{node.lineno}:"
              f"{ast.unparse(keyword.value)}"
              for top in TREES + ("benchmarks",)
              for path in sorted((ROOT / top).rglob("*.py"))
              if path != Path(__file__).resolve()
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call)
              and _called(node) == "parallel_log_source"
              for keyword in node.keywords if keyword.arg == "columnar"]
    assert [site.split(":")[0] for site in passes] \
        == ["benchmarks/e2e/pipeline.py"] * 2
    assert {site.rpartition(":")[2] for site in passes} == {"True"}


# -- (p) only options a caller sets --------------------------------------------

#: the deleted options and what only they reached
UNSET_MODES = re.compile(
    r"\b(unaligned_after|drop_on_overflow|replayable|in_flight"
    r"|spilled_items|dropped_overflow|is_spilling|SPILL|STRAGGLER"
    r"|ttl_s|tier_fanout|channel_capacity|DEFAULT_KEY_GROUPS|log_sink"
    r"|retention_bytes|retention_seconds|run_retention|run_compaction"
    r"|SessionWindows|_merge_sessions|exclude_seen|partition_out"
    r"|partition_in|retryable|escalate|xray_surcharge_ms"
    r"|memtable_limit|TIER_FANOUT|SortedRun|IntervalJoinOperator"
    r"|ReduceOperator|ShedPolicy|set_shedding|shed_state|num_shards"
    r"|_ROUTE_MEMO_MAX)\b"
    r"|\bcompacted\s*=")
#: (module, class) -> parameters of its ``__init__``, ``self`` excluded
INIT_PARAMETERS = {
    ("streaming/execution.py", "ParallelExecutor"): 8,
    ("streaming/supervisor.py", "Supervisor"): 12,
    ("streaming/transport.py", "Channels"): 4,
    ("store/hot.py", "HotStore"): 0,
    ("store/tiered.py", "TieredStore"): 1,
}
#: (module, function) -> its parameters
FUNCTION_PARAMETERS = {
    ("store/tiered.py", "serve_topic"): 9,
    ("streaming/plan.py", "compile_execution_graph"): 4,
}


def test_the_deleted_modes_are_named_nowhere():
    hits = []
    for top in ("src", "tools", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            for match in UNSET_MODES.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                hits.append(f"{path.relative_to(ROOT)}:{line}: "
                            f"{match.group(0)}")
    assert hits == []


def _parameter_count(function):
    args = function.args
    return len(args.posonlyargs + args.args + args.kwonlyargs)


def test_constructors_take_only_the_options_callers_set():
    counts = {}
    for (rel, name) in INIT_PARAMETERS:
        tree = ast.parse((SRC / rel).read_text())
        (cls,) = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == name]
        (init,) = [item for item in cls.body
                   if isinstance(item, ast.FunctionDef)
                   and item.name == "__init__"]
        counts[(rel, name)] = _parameter_count(init) - 1
    assert counts == INIT_PARAMETERS


def test_functions_take_only_the_options_callers_set():
    counts = {}
    for (rel, name) in FUNCTION_PARAMETERS:
        tree = ast.parse((SRC / rel).read_text())
        (function,) = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == name]
        counts[(rel, name)] = _parameter_count(function)
    assert counts == FUNCTION_PARAMETERS


def test_key_groups_and_store_clocks_are_no_parameter():
    hits = []
    for rel, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.arg):
                continue
            if node.arg == "num_key_groups" or (
                    rel.startswith("store/") and node.arg == "clock"):
                hits.append(f"{rel}:{node.lineno}: {node.arg}")
    assert hits == []


def test_the_engine_does_not_import_networkx():
    hits = []
    for rel, text in _sources():
        if not rel.startswith(STREAMING):
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            hits += [f"{rel}:{node.lineno}: {name}" for name in names
                     if name.split(".")[0] == "networkx"]
    assert hits == []


# -- (r) every def has a caller ----------------------------------------------

#: the trees whose code counts as a caller; a ``tests`` directory never does
CALLER_TREES = ("src", "benchmarks", "examples", "tools")
#: defs that no non-test code reaches, and why each stays; an entry
#: leaves when its def gains a caller (the census then fails)
UNREACHED_ALLOWED = {
    "GeometricMechanism": "ROADMAP item 10's DP release operator for counts",
    "TransactionalLogSink": "ROADMAP item 3 gives it its first caller",
    "InMemoryExporter": "the fake that tests substitute for an exporter",
    "span_from_dict": "the wire form's inverse, the round trip's reference",
    "tree_is_connected": "the trace-connectivity check two tests assert",
    "elements_of": "the sink decode two property tests compare against",
    "RETRY": "deleting it changes ErrorPolicy and the DeadLetter format",
    "GridCloak": "ROADMAP item 16 cloaks what the guard lets through; "
                 "the guard's cloak mode, its one caller, had none",
    "Producer.send_batch": "ROADMAP item 3: TransactionalLogSink writes "
                           "through it",
    "GeoController.handoff": "ROADMAP item 7(a)'s zone-handoff rule; "
                             "make geo proves it exactly-once",
    "HealthcareApp.vitals_dashboard": "ROADMAP item 12's ward dashboard",
    "HealthcareApp.build_serving_store": "ROADMAP item 12: the app's job "
                                         "feeds its serving store",
    "TourismApp.trending_private": "ROADMAP item 10 releases it through "
                                   "the DP operator",
    "SharedDataset.retract": "ROADMAP item 15's delta sync applies "
                             "retracts",
    "ARSession.close_probe": "ROADMAP item 15 filters probes at open and "
                             "close, never per frame",
}
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITION = FUNCTION + (ast.ClassDef,)


def _docstrings(tree):
    """The docstring constants of ``tree``'s module, classes and defs."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + DEFINITION) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(first.value)
    return found


def _names_used(nodes, docstrings, strings=True):
    """Every identifier ``nodes`` read: names, attributes, imports and,
    with ``strings``, string constants that are identifiers (what
    ``getattr(obj, "name")`` reaches) other than docstrings."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2]
                            for alias in sub.names)
            elif strings and isinstance(sub, ast.Constant) \
                    and isinstance(sub.value, str) \
                    and sub.value.isidentifier() and sub not in docstrings:
                used.add(sub.value)
    return used


def _is_re_export(stmt):
    """``__all__ = [...]`` or a ``lazy_exports`` table: names a module
    lists, not code that calls them."""
    if not isinstance(stmt, ast.Assign):
        return False
    if any(isinstance(target, ast.Name) and target.id == "__all__"
           for target in stmt.targets):
        return True
    call = stmt.value
    return isinstance(call, ast.Call) \
        and getattr(call.func, "id", None) == "lazy_exports"


def _library_defs(tree, rel, docstrings):
    """``(rel, class or None, name, names its body uses)`` of each
    module-level def and class, and of each function defined directly
    in a class body.  A class's own entry covers what is not a method:
    its bases, decorators and fields."""
    for stmt in tree.body:
        if isinstance(stmt, FUNCTION):
            yield rel, None, stmt.name, _names_used([stmt], docstrings)
        elif isinstance(stmt, ast.ClassDef):
            shell = [*stmt.bases, *stmt.keywords, *stmt.decorator_list,
                     *(item for item in stmt.body
                       if not isinstance(item, FUNCTION))]
            yield rel, None, stmt.name, _names_used(shell, docstrings)
            for item in stmt.body:
                if isinstance(item, FUNCTION):
                    yield (rel, stmt.name, item.name,
                           _names_used([item], docstrings))


def _label(cls, name):
    return f"{cls}.{name}" if cls else name


def unreached_defs(files, allowed=()):
    """``path:name`` of every def or class under ``src/`` in ``files``
    (path -> source) that no caller reaches; a method is written
    ``path:Class.method``.

    Non-library code is always live, and so is a library module's
    top-level code other than imports and re-exports.  A def is reached
    when live code uses its name — as a name, an attribute or an
    identifier string — and then what its body uses is live too, until
    nothing changes: a def whose only caller is unreached is unreached.
    A method is reached when its class is and its name is used (any
    class's method of that name: an override is reached through a call
    of the base's); a dunder is reached with its class.  Docstrings,
    ``__all__`` and ``lazy_exports`` tables name nothing.  The bodies of
    the ``allowed`` defs (and of the methods of an allowed class) count
    as live, so what kept code calls is kept.  A method of an unreached
    class is not listed: the class is.
    """
    live, defs = set(), []
    for rel, text in files.items():
        tree = ast.parse(text)
        docstrings = _docstrings(tree)
        if not rel.startswith("src/"):
            live |= _names_used([tree], docstrings)
            continue
        defs += _library_defs(tree, rel, docstrings)
        for stmt in tree.body:
            if _is_re_export(stmt):
                live |= _names_used([stmt], docstrings, strings=False)
            elif not isinstance(stmt, DEFINITION + (ast.Import,
                                                    ast.ImportFrom)):
                live |= _names_used([stmt], docstrings)
    classes = set()

    def reach(d):
        rel, cls, name, used = d
        live.update(used)
        if cls is None:
            classes.add((rel, name))

    unreached = []
    for d in defs:
        (reach if {_label(d[1], d[2]), d[1]} & set(allowed)
         else unreached.append)(d)
    while True:
        reached = [d for d in unreached
                   if (d[2] in live if d[1] is None else
                       (d[0], d[1]) in classes and (
                           d[2] in live or (d[2].startswith("__")
                                            and d[2].endswith("__"))))]
        if not reached:
            break
        unreached = [d for d in unreached if d not in reached]
        for d in reached:
            reach(d)
    return sorted(f"{rel}:{_label(cls, name)}"
                  for rel, cls, name, _used in unreached
                  if cls is None or (rel, cls) in classes)


def _caller_files():
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for top in CALLER_TREES
            for path in sorted((ROOT / top).rglob("*.py"))
            if "tests" not in path.relative_to(ROOT).parts}


def _names(sites):
    return {site.rpartition(":")[2] for site in sites}


def test_every_def_has_a_caller_outside_the_tests():
    files = _caller_files()
    unreached = unreached_defs(files, UNREACHED_ALLOWED)
    assert [site for site in unreached
            if site.rpartition(":")[2] not in UNREACHED_ALLOWED] == []
    # the allow-list only shrinks: a name that gained a caller other
    # than an allow-listed body leaves it
    assert sorted(set(UNREACHED_ALLOWED)
                  - _names(unreached_defs(files))) == []


def test_the_census_flags_a_def_nothing_calls():
    files = {"src/repro/m.py": "def used():\n    pass\n\n\n"
                               "def orphan():\n    return used()\n",
             "tools/t.py": "from repro.m import used\nused()\n"}
    assert unreached_defs(files) == ["src/repro/m.py:orphan"]


def test_a_re_export_or_a_docstring_is_no_caller():
    files = {"src/repro/pkg/__init__.py": "from .m import hidden, shown\n"
                                          "__all__ = ['hidden', 'shown']\n",
             "src/repro/pkg/m.py": '"""See :func:`hidden`."""\n\n\n'
                                   "def hidden():\n    pass\n\n\n"
                                   "class shown:\n"
                                   '    """Unlike :func:`hidden`."""\n',
             "examples/e.py": "from repro.pkg import shown\nshown()\n"}
    assert unreached_defs(files) == ["src/repro/pkg/m.py:hidden"]


def test_a_lazy_re_export_is_no_caller():
    files = {"src/repro/_lazy.py": "def lazy_exports(p, e):\n"
                                   "    return e, e\n",
             "src/repro/pkg/__init__.py":
                 "from .._lazy import lazy_exports\n"
                 "__getattr__, __dir__ = lazy_exports(\n"
                 "    __name__, {'.m': ('hidden', 'shown')})\n",
             "src/repro/pkg/m.py": "def hidden():\n    pass\n\n\n"
                                   "def shown():\n    pass\n",
             "examples/e.py": "from repro.pkg import shown\nshown()\n"}
    assert unreached_defs(files) == ["src/repro/pkg/m.py:hidden"]


def test_a_helper_of_a_reached_def_is_reached_and_of_a_dead_one_dead():
    module = ("def helper():\n    return helper()\n\n\n"
              "def api():\n    return helper()\n\n\n"
              "def lonely():\n    return lonely_helper()\n\n\n"
              "def lonely_helper():\n    return lonely()\n")
    files = {"src/repro/m.py": module,
             "benchmarks/b.py": "import repro.m\nrepro.m.api()\n"}
    assert unreached_defs(files) == ["src/repro/m.py:lonely",
                                     "src/repro/m.py:lonely_helper"]


#: a library class for the method cases below, and a tool that calls
#: ``Box.used`` and nothing else of it
BOX = ("class Box:\n"
       "    def __init__(self):\n        self._setup()\n\n"
       "    def _setup(self):\n        pass\n\n"
       "    def used(self):\n        return 1\n\n"
       "    def orphan(self):\n        return self.orphan_helper()\n\n"
       "    def orphan_helper(self):\n        return 2\n\n"
       "    def by_name(self):\n        return 3\n")
BOX_CALLER = "from repro.m import Box\nBox().used()\n"


def test_a_method_nothing_calls_is_flagged_with_its_class():
    files = {"src/repro/m.py": BOX, "tools/t.py": BOX_CALLER}
    assert unreached_defs(files) == ["src/repro/m.py:Box.by_name",
                                     "src/repro/m.py:Box.orphan",
                                     "src/repro/m.py:Box.orphan_helper"]


def test_a_method_reached_only_through_a_dead_method_is_dead():
    files = {"src/repro/m.py": BOX, "tools/t.py": BOX_CALLER}
    assert "src/repro/m.py:Box.orphan_helper" in unreached_defs(files)
    # ... and live once the dead method's body is allow-listed
    assert "src/repro/m.py:Box.orphan_helper" not in unreached_defs(
        files, {"Box.orphan"})


def test_a_getattr_string_reaches_a_method():
    files = {"src/repro/m.py": BOX,
             "tools/t.py": BOX_CALLER + "getattr(Box(), 'by_name')()\n"}
    assert "src/repro/m.py:Box.by_name" not in unreached_defs(files)


def test_a_dunder_is_live_and_so_is_its_private_helper():
    files = {"src/repro/m.py": BOX, "tools/t.py": BOX_CALLER}
    unreached = unreached_defs(files)
    assert "src/repro/m.py:Box.__init__" not in unreached
    assert "src/repro/m.py:Box._setup" not in unreached


def test_an_override_is_reached_through_a_call_of_the_base_name():
    module = ("class Base:\n    def run(self):\n        return 0\n\n\n"
              "class Child(Base):\n    def run(self):\n        return 1\n"
              "\n    def extra(self):\n        return 2\n")
    files = {"src/repro/m.py": module,
             "tools/t.py": "from repro.m import Base, Child\n"
                           "def go(b: Base):\n    return b.run()\n"
                           "go(Child())\n"}
    assert unreached_defs(files) == ["src/repro/m.py:Child.extra"]


def test_the_methods_of_an_unreached_class_go_with_it():
    files = {"src/repro/m.py": BOX, "tools/t.py": "print('no box')\n"}
    assert unreached_defs(files) == ["src/repro/m.py:Box"]


# -- (t) every def runs in a product run ---------------------------------------

#: the runtime census (``make reach``): every def under ``src/`` that a
#: product run entered
REACH = ROOT / "tools" / "reach.txt"
FAULT = ("a fault path: runs when a fault is injected, a record is "
         "refused or a failed step is retried or recovered; the chaos, "
         "datafault and robustness suites run it")
SEAM = ("a seam: a base-class hook every subclass overrides, or a "
        "refusal")
ORACLE = ("the per-item reference (batch_mode=False) that the "
          "equivalence suites compare batched runs against")
CLI = "CLI-only: tools/trace_report.py's render, export and re-import"
DUNDER = ("a dunder or the pickled form: what a printout, a debugger "
          "or a test reads")
BUILDING = ("called only by an allow-listed open item's building block "
            "(TransactionalLogSink for item 3, GridCloak for item 16)")
#: defs lint (r) counts as reached that no product run enters, by why
#: each stays; an entry leaves when a run enters its def or the def is
#: deleted (the census then fails), so the list only shrinks
NOT_RUN_ALLOWED = {
    FAULT: (
        "chaos/injector.py:FaultInjector.count",
        "chaos/injector.py:FaultInjector.on_channel_offer",
        "chaos/injector.py:FaultInjector.stall_check",
        "chaos/injector.py:FaultInjector.before_append",
        "chaos/injector.py:FaultInjector._run_broker_events",
        "chaos/injector.py:FaultInjector.finish_broker_events",
        "chaos/injector.py:ChaosLogCluster.cluster",
        "chaos/injector.py:ChaosLogCluster.injector",
        "chaos/injector.py:ChaosLogCluster._after_append",
        "chaos/injector.py:ChaosLogCluster.append_row",
        "chaos/injector.py:ChaosLogCluster.appenders",
        "chaos/injector.py:ChaosLogCluster.append",
        "chaos/injector.py:ChaosLogCluster.append_idempotent",
        "chaos/injector.py:ChaosLogCluster.read",
        "chaos/injector.py:ChaosLogCluster.settle",
        "eventlog/broker.py:LogCluster.recover_broker",
        "eventlog/producer.py:Producer.resend_last",
        "eventlog/producer.py:Producer.send_with_retry",
        "simnet/failures.py:FailureEvent.__post_init__",
        "simnet/failures.py:FailureInjector.schedule",
        "simnet/topology.py:Topology.recover_node",
        "simnet/topology.py:Topology.recover_region",
        "streaming/cep.py:PatternOperator.restore",
        "streaming/errors.py:corrupt_timestamp",
        "streaming/state.py:KeyedState.restore",
        "streaming/transport.py:Channels._apply_faults",
        "streaming/transport.py:Channels._receive",
        "util/errors.py:RetryExhausted.__init__",
        "util/retry.py:Retrier.__init__",
        "util/retry.py:Retrier.call",
        "util/retry.py:CircuitBreaker._trip",
        "util/retry.py:CircuitBreaker.call",
    ),
    SEAM: (
        "offload/policies.py:OffloadPolicy.decide",
        "streaming/autoscale.py:ScalingPolicy.decide",
        "streaming/chain.py:ChainedOperator.process",
        "streaming/operators.py:Operator.process",
        "streaming/operators.py:Operator._run_columnar",
        "streaming/supervisor.py:Controller.after_slice",
        "streaming/windows.py:WindowAssigner.assign",
    ),
    ORACLE: (
        "streaming/batch.py:RecordBatch.extend_elements",
        "streaming/cep.py:PatternOperator.on_watermark",
        "streaming/operators.py:WatermarkGenerator.on_watermark",
        "streaming/sources.py:Split.decoded",
        "streaming/window_operator.py:_exact_add",
        "streaming/window_operator.py:_mean_add",
    ),
    CLI: (
        "obs/exporters.py:json_safe",
        "obs/exporters.py:JsonLinesExporter.__init__",
        "obs/exporters.py:JsonLinesExporter._write",
        "obs/exporters.py:JsonLinesExporter.export_spans",
        "obs/exporters.py:JsonLinesExporter.export_metrics",
        "obs/exporters.py:read_jsonl",
        "obs/exporters.py:ConsoleExporter.__init__",
        "obs/exporters.py:ConsoleExporter.export_spans",
        "obs/exporters.py:ConsoleExporter.export_metrics",
        "obs/exporters.py:ConsoleExporter._table",
        "obs/report.py:SpanNode.duration",
        "obs/report.py:critical_path",
        "obs/report.py:_format_duration",
        "obs/report.py:render_tree",
    ),
    DUNDER: (
        "chaos/plan.py:FaultPlan.__len__",
        "context/entities.py:ContextStore.__len__",
        "core/session.py:SharedDataset.__len__",
        "eventlog/partition.py:Partition.__len__",
        "obs/trace.py:SpanEvent.__repr__",
        "obs/trace.py:Span.__repr__",
        "privacy/reidentify.py:TraceDatabase.__len__",
        "sensors/spatial.py:QuadTree.__len__",
        "simnet/topology.py:Topology.__len__",
        "streaming/batch.py:RecordBatch.__repr__",
        "streaming/batch.py:RecordBatch.__eq__",
        "streaming/batch.py:_unpack",
        "streaming/batch.py:_unpack_batch",
        "streaming/element.py:Element.__reduce__",
        "streaming/state.py:KeyedState.__contains__",
        "streaming/state.py:KeyedState.__len__",
        "util/clock.py:SimClock.__repr__",
    ),
    BUILDING: (
        "eventlog/producer.py:Producer.bump_epoch",
        "eventlog/producer.py:Producer.begin_transaction",
        "eventlog/producer.py:Producer.send_transactional",
        "eventlog/producer.py:Producer.commit_transaction",
        "privacy/location.py:CloakedRegion.__init__",
        "privacy/location.py:CloakedRegion.radius_m",
    ),
}
#: not a reason to stay: library API that only tests run or read,
#: which ROADMAP item 21 deletes with its tests or gives a product
#: caller; it is held to the same rule and only shrinks
NOT_RUN_PENDING_DELETION = (
    "analytics/anomaly.py:EwmaDetector.mean",
    "analytics/anomaly.py:EwmaDetector.std",
    "analytics/heavyhitters.py:HeavyHitters.estimate",
    "analytics/incremental.py:RunningStats.variance",
    "analytics/incremental.py:RunningStats.std",
    "analytics/incremental.py:RunningStats.merge",
    "analytics/recommend.py:Recommender.add",
    "analytics/recommend.py:Recommender.recommend",
    "analytics/sketches.py:CountMinSketch.merge",
    "analytics/sketches.py:HyperLogLog.estimate",
    "analytics/sketches.py:HyperLogLog.merge",
    "context/arml.py:ArmlDocument.get",
    "context/entities.py:ContextStore.entity",
    "context/entities.py:ContextStore.entities",
    "context/entities.py:ContextStore.user",
    "context/entities.py:ContextStore.nearby",
    "context/entities.py:ContextStore.distance",
    "core/pipeline.py:ARBigDataPipeline.sessions",
    "eventlog/consumer.py:Consumer.lag",
    "eventlog/consumer.py:ConsumerGroup.members",
    "eventlog/consumer.py:ConsumerGroup.commit",
    "eventlog/consumer.py:ConsumerGroup.committed",
    "eventlog/partition.py:Partition.append",
    "eventlog/partition.py:Partition.get",
    "eventlog/partition.py:Partition.clone",
    "eventlog/record.py:ConsumedRecord.record",
    "geo/controller.py:RegionController.regions",
    "geo/controller.py:RegionController.reset",
    "obs/trace.py:SpanEvent.__init__",
    "obs/trace.py:Span.context",
    "obs/trace.py:Span.add_event",
    "obs/trace.py:Span.duration",
    "obs/trace.py:Span.__enter__",
    "obs/trace.py:Span.__exit__",
    "obs/trace.py:_NoopSpan.add_event",
    "obs/trace.py:_NoopSpan.__enter__",
    "obs/trace.py:_NoopSpan.__exit__",
    "obs/trace.py:Tracer.active",
    "obs/trace.py:Tracer.finished",
    "offload/battery.py:Battery.fraction",
    "offload/battery.py:Battery.empty",
    "offload/battery.py:Battery.drain",
    "render/scene.py:SceneGraph.add_node",
    "render/scene.py:SceneGraph.get",
    "render/scene.py:SceneGraph.remove",
    "render/scene.py:SceneGraph._remove_from",
    "sensors/crowdmodel.py:CrowdModel.buildings",
    "sensors/poi.py:PoiDatabase.categories",
    "sensors/spatial.py:QuadTree.bounds",
    "simnet/kernel.py:ScheduledEvent.cancel",
    "simnet/kernel.py:Simulator.pending",
    "simnet/kernel.py:Simulator.processed",
    "simnet/queueing.py:ProcessingQueue.depth",
    "simnet/topology.py:Topology.regions",
    "store/analytical.py:AnalyticalStore.filter",
    "store/analytical.py:AnalyticalStore.stats",
    "store/hot.py:HotStore.stats",
    "store/tiered.py:TieredStore.filter",
    "store/tiered.py:TieredStore.count",
    "store/tiered.py:TieredStore.stats",
    "streaming/execution.py:ParallelExecutor._charge_cross_region",
    "streaming/graph.py:_StreamHandle.node",
    "streaming/placement.py:RegionPlacement.region_of",
    "streaming/placement.py:RegionPlacement.link_cost_s",
    "streaming/placement.py:RegionPlacement.moved",
    "streaming/plan.py:ExecutionGraph.edge_id",
    "streaming/plan.py:ExecutionGraph.cross_region_edges",
    "streaming/state.py:KeyedState.get",
    "streaming/state.py:KeyedState.keys",
    "streaming/state.py:KeyedState.clear",
    "streaming/txn_sink.py:TransactionalSink.elements",
    "streaming/windows.py:Window.contains",
    "util/geometry.py:clamp",
    "util/geometry.py:Rect.translated",
    "util/metrics.py:Gauge.inc",
    "util/metrics.py:Summary.minimum",
    "util/metrics.py:Summary.maximum",
    "util/metrics.py:Summary.total",
    "util/rng.py:RngRegistry.seed",
    "vision/camera.py:Pose.identity",
    "vision/camera.py:Pose.inverse",
    "vision/camera.py:Pose.compose",
)


def not_run_defs(files, reached):
    """``path:label`` of every method and module-level function under
    ``src/`` in ``files`` whose label is not in ``reached`` (the
    census's ``path:qualname`` lines), leaving out lint (r)'s
    allow-listed defs and the methods of its allow-listed classes: the
    census sees what a class runs, not the class."""
    out = []
    for rel, text in files.items():
        if not rel.startswith("src/"):
            continue
        tree = ast.parse(text)
        classes = {stmt.name for stmt in tree.body
                   if isinstance(stmt, ast.ClassDef)}
        for _rel, cls, name, _used in _library_defs(tree, rel,
                                                    _docstrings(tree)):
            label = _label(cls, name)
            if (cls is None and name in classes) \
                    or {label, cls} & set(UNREACHED_ALLOWED):
                continue
            if f"{rel}:{label}" not in reached:
                out.append(f"{rel}:{label}")
    return sorted(out)


def _not_run_allowed():
    sites = [site for group in NOT_RUN_ALLOWED.values() for site in group]
    return [f"src/repro/{site}"
            for site in sites + list(NOT_RUN_PENDING_DELETION)]


def test_every_def_runs_in_a_product_run():
    reached = set(REACH.read_text().split())
    not_run = not_run_defs(_caller_files(), reached)
    allowed = _not_run_allowed()
    assert len(allowed) == len(set(allowed))
    assert [site for site in not_run if site not in allowed] == []
    # the list only shrinks: a listed def that a run entered, or that
    # is gone, leaves it
    assert sorted(set(allowed) - set(not_run)) == []


def test_the_census_names_only_defs_that_exist():
    """A def deleted since ``make reach`` last ran leaves a stale line."""
    defs = {f"{rel}:{_label(cls, name)}"
            for rel, text in _caller_files().items()
            if rel.startswith("src/")
            for _rel, cls, name, _used in _library_defs(
                ast.parse(text), rel, set())}
    stale = [site for site in REACH.read_text().split()
             if "<locals>" not in site and site not in defs]
    assert stale == []


def test_the_runtime_census_sees_through_a_common_name():
    """A method only tests call, named like ``str.join``: lint (r)
    counts it as reached, the runtime census does not."""
    module = ("class Box:\n    def used(self):\n        return 1\n\n"
              "    def join(self, other):\n        return other\n")
    files = {"src/repro/m.py": module,
             "tools/t.py": "from repro.m import Box\nBox().used()\n"
                           "print(', '.join(['a', 'b']))\n"}
    assert unreached_defs(files) == []
    assert not_run_defs(files, {"src/repro/m.py:Box.used"}) \
        == ["src/repro/m.py:Box.join"]


# -- (s) every parameter is set by a caller ----------------------------------

#: defaulted parameters no caller outside the tests sets, and why each
#: stays; an entry leaves when a caller sets it (the census then fails)
UNSET_ALLOWED = {
    "Tracer(timer)": "a seam: tests substitute a fake clock",
    "GeoDeployment(injector)": "a seam: tests substitute a fault injector",
    "parallel_log_source(columnar)": "benchmarks/e2e/pipeline.py passes "
                                     "columnar=True and may not change; "
                                     "False is refused (ROADMAP item 1(f))",
    "main(argv)": "a seam: tests pass the command line in place of "
                  "sys.argv",
}


#: the command line's module: ``x.main(...)`` binds to its ``main`` only
#: where ``x`` names that module
CLI_MODULE = "src/repro/__main__.py"


def _cli_names(tree):
    """The names under which a module binds ``repro.__main__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name for a in node.names
                      if a.name == "repro.__main__"}
        elif isinstance(node, ast.ImportFrom) and node.module == "repro":
            names |= {a.asname or a.name for a in node.names
                      if a.name == "__main__"}
    return names


class _Scope:
    """The parameters of one def as a call inside it sees them."""

    def __init__(self, key, fn, method=False):
        self.key = key
        args = fn.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) \
            + list(args.defaults)
        params = [(a.arg, d, i) for i, (a, d) in enumerate(zip(positional,
                                                               defaults))]
        params += [(a.arg, d, None)
                   for a, d in zip(args.kwonlyargs, args.kw_defaults)]
        if method and not any(getattr(d, "id", None) == "staticmethod"
                              for d in fn.decorator_list):
            params = [(name, d, None if i is None else i - 1)
                      for name, d, i in params[1:]]
        #: name -> (default node or None, positional index or None)
        self.params = {name: (d, i) for name, d, i in params}
        self.kwarg = args.kwarg.arg if args.kwarg else None
        self.bound = {node.id for node in ast.walk(fn)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Store)}
        self.bound |= {a.arg for a in (args.vararg, args.kwarg) if a}


def _is_frozen_dataclass(cls):
    return any(isinstance(d, ast.Call)
               and ast.unparse(d.func).rpartition(".")[2] == "dataclass"
               and any(kw.arg == "frozen"
                       and getattr(kw.value, "value", False) is True
                       for kw in d.keywords)
               for d in cls.decorator_list)


def _dataclass_init(cls):
    """The ``__init__`` a frozen dataclass gets from its fields, in
    field order (``field(init=False)`` and ``ClassVar`` fields left
    out), or ``None`` for another class or one that writes its own."""
    if not _is_frozen_dataclass(cls) or any(
            isinstance(item, FUNCTION) and item.name == "__init__"
            for item in cls.body):
        return None
    names, defaults = [ast.arg("self")], []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)) \
                or "ClassVar" in ast.unparse(item.annotation):
            continue
        default = item.value
        if isinstance(default, ast.Call) \
                and getattr(default.func, "id", None) == "field":
            options = {kw.arg: kw.value for kw in default.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            default = options.get("default", default if (
                "default_factory" in options) else None)
        names.append(ast.arg(item.target.id))
        if default is not None:
            defaults.append(default)
    return ast.FunctionDef(
        name="__init__", body=[], decorator_list=[],
        args=ast.arguments(posonlyargs=[], args=names, vararg=None,
                           kwonlyargs=[], kw_defaults=[], kwarg=None,
                           defaults=defaults))


def _same_value(value, default):
    """Whether a call passes ``value`` where the def has ``default``."""
    if ast.dump(value) == ast.dump(default):
        return True
    try:
        a, b = ast.literal_eval(value), ast.literal_eval(default)
    except (ValueError, SyntaxError, TypeError):
        return False
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _param_label(key, param):
    rel, cls, name = key
    where = cls if name == "__init__" else _label(cls, name)
    return f"{rel}:{where}({param})"


def unset_parameters(files, allowed_defs=(), allowed=()):
    """``(number of censused parameters, [path:Def(param)])``: every
    parameter with a default, of each module-level def and method under
    ``src/`` in ``files`` and of each frozen dataclass's constructor
    (its own fields, in order), that no reached code (lint (r)'s sense)
    sets to a value other than its default.  ``Class(param)`` names a
    constructor's parameter.

    Calls match by name, as lint (r) does: ``f(...)`` and ``x.f(...)``
    reach every def named ``f``, ``Class(...)``, ``cls(...)`` and
    ``super().__init__(...)`` reach the (inherited) ``__init__`` — but
    ``x.main(...)`` reaches ``repro.__main__.main`` only where ``x`` names
    that module, so ``pytest.main(args)`` sets none of its ``argv`` —, and
    ``partial(f, ...)`` binds what it names and leaves the rest of
    ``f``'s positional parameters to a caller the census cannot see, so
    they count as set.  A keyword, a positional argument, a ``*args``
    (the positions from it on) or a ``**mapping`` (every parameter)
    sets a parameter.  An argument equal to the default sets nothing.
    ``f(p=p)`` inside a def whose own ``p`` has the same default and is
    never rebound sets ``f``'s ``p`` only if the outer ``p`` is set, and
    ``f(**kwargs)`` with the def's own ``**kwargs`` forwards the
    keywords its callers pass.  The parameters of ``allowed_defs`` (and
    of the methods of an allowed class) are not censused, and a
    parameter whose ``Def(param)`` label is in ``allowed`` is not
    listed.
    """
    unreached = set(unreached_defs(files, allowed_defs))
    trees = {rel: ast.parse(text) for rel, text in files.items()}
    by_name, scopes, bases, inits, census = {}, {}, {}, {}, {}
    for rel, tree in trees.items():
        if not rel.startswith("src/"):
            continue
        for stmt in tree.body:
            members = [(None, stmt)] if isinstance(stmt, FUNCTION) else []
            if isinstance(stmt, ast.ClassDef):
                bases[stmt.name] = [ast.unparse(b).rpartition(".")[2]
                                    for b in stmt.bases]
                members = [(stmt.name, item) for item in stmt.body
                           if isinstance(item, FUNCTION)]
                fields = _dataclass_init(stmt)
                if fields is not None:
                    members.append((stmt.name, fields))
            for cls, fn in members:
                key = (rel, cls, fn.name)
                scopes[key] = _Scope(key, fn, method=cls is not None)
                if fn.name == "__init__":
                    inits[cls] = key
                by_name.setdefault(cls if fn.name == "__init__"
                                   else fn.name, []).append(key)
                if (not {cls, _label(cls, fn.name)} & set(allowed_defs)
                        and f"{rel}:{_label(cls, fn.name)}" not in unreached
                        and f"{rel}:{cls}" not in unreached):
                    census.update({(key, p): default for p, (default, _)
                                   in scopes[key].params.items()
                                   if default is not None})
    for cls in bases:
        lineage = list(bases[cls])
        while cls not in inits and lineage:
            base = lineage.pop(0)
            if base in inits:
                by_name.setdefault(cls, []).append(inits[base])
                break
            lineage += bases.get(base, [])

    live, forwarded_from = set(), {}
    pending, kwargs_to = [], {}
    #: what names ``repro.__main__`` in the module being visited
    cli_names = set()

    def setter(value, default, outer):
        """What passing ``value`` does: ``None`` (nothing), ``"set"``,
        or the outer parameter it is live through."""
        if _same_value(value, default):
            return None
        for scope in reversed(outer):
            if isinstance(value, ast.Name) and value.id in scope.params:
                own = scope.params[value.id][0]
                if ((scope.key, value.id) in census
                        and value.id not in scope.bound
                        and _same_value(own, default)):
                    return scope.key, value.id
                return "set"
            if isinstance(value, ast.Name) and value.id in scope.bound:
                return "set"
        return "set"

    def pass_to(key, param, value, outer):
        if (key, param) not in census:
            return
        how = "set" if value is None else setter(value, census[(key, param)],
                                                 outer)
        if how == "set":
            live.add((key, param))
        elif how is not None:
            forwarded_from.setdefault(how, set()).add((key, param))

    def call(node, outer, cls):
        func, args, rest = node.func, node.args, None
        if getattr(func, "id", None) == "partial" and args:
            func, args = args[0], args[1:]
            rest = len(args)
        if isinstance(func, ast.Name):
            names = [cls if func.id == "cls" else func.id]
        elif (isinstance(func, ast.Attribute) and func.attr == "__init__"
              and isinstance(func.value, ast.Call)
              and getattr(func.value.func, "id", None) == "super"):
            names = bases.get(cls, [])
        elif isinstance(func, ast.Attribute):
            names = [func.attr]
        elif isinstance(func, ast.Call) \
                and getattr(func.func, "id", None) == "type":
            names = [cls]
        else:
            return
        other_main = (isinstance(func, ast.Attribute) and func.attr == "main"
                      and ast.unparse(func.value) not in cli_names)
        for key in (key for name in names for key in by_name.get(name, ())
                    if not (other_main and key[0] == CLI_MODULE)):
            params = scopes[key].params
            for j, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    rest = j if rest is None else min(rest, j)
                    break
                for p, (_, i) in params.items():
                    if i == j:
                        pass_to(key, p, arg, outer)
            for p, (_, i) in params.items():
                if rest is not None and i is not None and i >= rest:
                    pass_to(key, p, None, outer)
            for kw in node.keywords:
                if kw.arg in params:
                    pass_to(key, kw.arg, kw.value, outer)
                elif kw.arg is not None:
                    pending.append((key, kw.arg, kw.value, outer))
                elif (outer and outer[-1].key is not None
                      and isinstance(kw.value, ast.Name)
                      and kw.value.id == outer[-1].kwarg):
                    kwargs_to.setdefault(outer[-1].key, []).append(key)
                else:
                    for p in params:
                        pass_to(key, p, None, outer)

    def visit(node, outer, cls, key=None):
        if isinstance(node, FUNCTION + (ast.Lambda,)):
            for sub in (*node.args.defaults, *node.args.kw_defaults,
                        *getattr(node, "decorator_list", ())):
                if sub is not None:
                    visit(sub, outer, cls)
            inner = outer + [scopes[key] if key else _Scope(None, node)]
            for stmt in (node.body if isinstance(node.body, list)
                         else [node.body]):
                visit(stmt, inner, cls)
            return
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Call):
            call(node, outer, cls)
        for child in ast.iter_child_nodes(node):
            visit(child, outer, cls)

    for rel, tree in trees.items():
        cli_names.clear()
        cli_names.update(_cli_names(tree))
        if not rel.startswith("src/"):
            visit(tree, [], None)
            continue
        for stmt in tree.body:
            members = [(None, stmt)] if isinstance(stmt, FUNCTION) else []
            if isinstance(stmt, ast.ClassDef):
                if f"{rel}:{stmt.name}" in unreached:
                    continue
                for sub in (*stmt.bases, *stmt.keywords, *stmt.decorator_list,
                            *(item for item in stmt.body
                              if not isinstance(item, FUNCTION))):
                    visit(sub, [], stmt.name)
                members = [(stmt.name, item) for item in stmt.body
                           if isinstance(item, FUNCTION)]
            elif not members:
                visit(stmt, [], None)
            for cls, fn in members:
                if f"{rel}:{_label(cls, fn.name)}" not in unreached:
                    visit(fn, [], cls, (rel, cls, fn.name))

    # keywords a def takes through ``**kwargs`` reach what it forwards to
    seen = set()
    while pending:
        key, p, value, outer = pending.pop()
        for target in kwargs_to.get(key, ()):
            if (target, p, id(value)) not in seen:
                seen.add((target, p, id(value)))
                if p in scopes[target].params:
                    pass_to(target, p, value, outer)
                else:
                    pending.append((target, p, value, outer))
    todo = list(live)
    while todo:
        for nxt in forwarded_from.get(todo.pop(), ()):
            if nxt not in live:
                live.add(nxt)
                todo.append(nxt)
    unset = (_param_label(key, p) for key, p in census
             if (key, p) not in live)
    return len(census), sorted(site for site in unset
                               if site.rpartition(":")[2] not in allowed)


def test_a_main_of_another_module_sets_no_argv_of_the_cli():
    """``pytest.main(args)`` in a tool names another module's ``main``;
    only a call through a name bound to ``repro.__main__`` sets the
    command line's ``argv``."""
    files = {CLI_MODULE: "def main(argv=None):\n    return argv\n",
             "tools/t.py": "import pytest\npytest.main(['-q'])\n"}
    assert unset_parameters(files)[1] == [f"{CLI_MODULE}:main(argv)"]
    for caller in ("from repro import __main__ as cli\ncli.main(['-q'])\n",
                   "import repro.__main__\nrepro.__main__.main(['-q'])\n",
                   "from repro.__main__ import main\nmain(['-q'])\n"):
        files["tools/t.py"] = caller
        assert unset_parameters(files)[1] == [], caller


def test_every_parameter_is_set_by_a_caller_outside_the_tests():
    files = _caller_files()
    _, unset = unset_parameters(files, UNREACHED_ALLOWED, UNSET_ALLOWED)
    assert unset == []
    # the allow-list only shrinks: a parameter that gained a caller
    # leaves it
    _, unset = unset_parameters(files, UNREACHED_ALLOWED)
    assert sorted(set(UNSET_ALLOWED) - _names(unset)) == []


#: a library module with one defaulted parameter per census rule, and
#: the tool that calls into it
KNOBS = ("def knob(a, unset=1, default_only=2, positional=3, keyword=4):\n"
         "    return a\n\n\n"
         "def outer(dead=5, live=6):\n"
         "    return inner(dead=dead, live=live)\n\n\n"
         "def inner(dead=5, live=6):\n"
         "    return dead + live\n\n\n"
         "def passes(**options):\n"
         "    return target(**options)\n\n\n"
         "def target(through=7, untouched=8):\n"
         "    return through + untouched\n\n\n"
         "class Seam:\n"
         "    def __init__(self, fake=None):\n"
         "        self.fake = fake\n")
KNOBS_CALLER = ("from repro.core.m import Seam, knob, outer, passes\n"
                "knob(0, 1, 2, 9, keyword=2)\n"
                "knob(0, default_only=2, keyword=10)\n"
                "outer(live=60)\n"
                "passes(through=70)\n"
                "Seam()\n")


def _knobs(allowed_defs=(), allowed=(), caller=KNOBS_CALLER):
    files = {"src/repro/core/m.py": KNOBS, "tools/t.py": caller}
    return unset_parameters(files, allowed_defs, allowed)


def test_the_parameter_census_flags_what_no_caller_sets():
    count, unset = _knobs()
    assert count == 11
    assert unset == ["src/repro/core/m.py:Seam(fake)",
                     "src/repro/core/m.py:inner(dead)",
                     "src/repro/core/m.py:knob(default_only)",
                     "src/repro/core/m.py:knob(unset)",
                     "src/repro/core/m.py:outer(dead)",
                     "src/repro/core/m.py:target(untouched)"]


def test_a_positional_argument_sets_a_parameter_and_a_default_does_not():
    _, unset = _knobs()
    # ``knob(0, 1, 2, 9, ...)`` passes both defaults positionally
    assert "src/repro/core/m.py:knob(positional)" not in unset
    assert "src/repro/core/m.py:knob(unset)" in unset
    assert "src/repro/core/m.py:knob(keyword)" not in unset
    _, unset = _knobs(caller=KNOBS_CALLER.replace("9, keyword=2", "3"))
    assert "src/repro/core/m.py:knob(positional)" in unset


def test_a_parameter_forwarded_from_a_dead_one_is_dead():
    _, unset = _knobs()
    assert "src/repro/core/m.py:inner(dead)" in unset
    assert "src/repro/core/m.py:inner(live)" not in unset
    _, unset = _knobs(caller=KNOBS_CALLER + "outer(dead=50)\n")
    assert "src/repro/core/m.py:inner(dead)" not in unset


def test_a_keyword_reaches_a_parameter_through_kwargs():
    _, unset = _knobs()
    assert "src/repro/core/m.py:target(through)" not in unset
    assert "src/repro/core/m.py:target(untouched)" in unset


def test_the_census_exempts_a_seam_and_an_allow_listed_def():
    _, unset = _knobs(allowed=("Seam(fake)",))
    assert "src/repro/core/m.py:Seam(fake)" not in unset
    _, unset = _knobs(allowed_defs=("knob", "Seam"))
    assert not [site for site in unset if ":knob(" in site]
    assert "src/repro/core/m.py:Seam(fake)" not in unset
    # the real exemptions are of those kinds, and name what exists
    assert all(label.partition("(")[0] in ("Tracer", "GeoDeployment",
                                           "parallel_log_source", "main")
               for label in UNSET_ALLOWED)


#: a frozen config whose fields are set by keyword, by position or not
#: at all, a mutable record the census leaves alone, and a top-level
#: module's def
CONFIGS = ("from dataclasses import dataclass, field\n"
           "from typing import ClassVar\n\n\n"
           "@dataclass(frozen=True)\n"
           "class Config:\n"
           "    name: str\n"
           "    by_keyword: int = 1\n"
           "    by_position: int = 2\n"
           "    unset: int = 3\n"
           "    derived: int = field(default=0, init=False)\n"
           "    constant: ClassVar[int] = 4\n\n\n"
           "@dataclass\n"
           "class Record:\n"
           "    count: int = 0\n")
CONFIGS_CALLER = ("from repro.core.c import Config, Record\n"
                  "from repro.m import top\n"
                  "Config('a', by_keyword=10)\n"
                  "Config('b', 1, 20)\n"
                  "Record()\n"
                  "top()\n")
TOP_LEVEL = "def top(unset=1):\n    return unset\n"


def _configs():
    files = {"src/repro/core/c.py": CONFIGS, "src/repro/m.py": TOP_LEVEL,
             "tools/t.py": CONFIGS_CALLER}
    return unset_parameters(files)


def test_a_frozen_dataclass_field_is_a_constructor_parameter():
    count, unset = _configs()
    # by_keyword, by_position and unset of Config, and top's unset
    assert count == 4
    assert "src/repro/core/c.py:Config(by_keyword)" not in unset
    assert "src/repro/core/c.py:Config(by_position)" not in unset
    assert "src/repro/core/c.py:Config(unset)" in unset


def test_a_mutable_dataclass_is_not_censused():
    _, unset = _configs()
    assert not [site for site in unset if ":Record(" in site]


def test_a_def_in_a_top_level_module_is_censused():
    _, unset = _configs()
    assert unset == ["src/repro/core/c.py:Config(unset)",
                     "src/repro/m.py:top(unset)"]
