# Single entry points for the repo's gates.  `make verify` is the full
# pre-merge check: tier-1 tests, the perf gate, the chaos gates, and
# the end-to-end benchmark's oracle check.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint reach claims chaos chaos-parallel determinism perf robustness datafault obs elasticity store geo e2e-smoke verify

test:  ## tier-1: fast unit/integration/property tests
	$(PYTHON) -m pytest -x -q

# Not in GATES: tier-1 already runs these; this reproduces a census,
# import-budget or API-reference failure in seconds.
lint:  ## structural checks only: source lints and census, import budget, API reference
	$(PYTHON) -m pytest -q tests/unit/test_source_lint.py tests/unit/test_import_budget.py tests/unit/test_api_docs.py

reach:  ## runtime census: every entry point under sys.setprofile; fails when tools/reach.txt was stale
	$(PYTHON) tools/reach.py

claims:  ## the paper's claims: every experiment bench's shape assertions, and its tables vs benchmarks/experiment_tables.txt
	$(PYTHON) tools/check_claims.py

obs:  ## observability gate: span-tree completeness + overhead budget
	$(PYTHON) tools/check_obs.py

chaos:  ## fault-injection recovery suites (chaos + slow markers)
	$(PYTHON) -m pytest -q -m "chaos or slow"

chaos-parallel:  ## coordinated checkpoints: barriers, 2PC sinks, regional recovery
	$(PYTHON) -m pytest -q -m "chaos or not chaos" \
		tests/property/test_coordinated_chaos.py \
		tests/property/test_coordinated_checkpoint.py

determinism:  ## every checkpoint of the coordinated, datafault and store sweeps identical under two hash seeds
	$(PYTHON) tools/diff_checkpoints.py test_coordinated_chaos test_datafault_chaos test_store_chaos

# perf needs numpy: check_perf fails fast with install instructions if
# it is missing.  --events 100000 matches the committed baseline so the
# absolute eps floors gate like-for-like.
perf:  ## throughput regression gate vs committed baseline
	$(PYTHON) tools/check_perf.py --skip-tests --events 100000

robustness:  ## fixed-schedule crash-recovery smoke + recovery-MTTR gate
	$(PYTHON) tools/check_robustness.py --skip-tests

datafault:  ## data-fault tolerance: DLQ exactly-once, checkpoint integrity, restart budget
	$(PYTHON) tools/check_robustness.py --datafault

elasticity:  ## autoscale chaos suite + live-rescale SLO/replay gate
	$(PYTHON) tools/check_elasticity.py

store:  ## serving-store chaos suite + exactly-once/latency gate
	$(PYTHON) tools/check_store.py

geo:  ## geo chaos suite + edge-vs-cloud latency / failover gate
	$(PYTHON) tools/check_geo.py

e2e-smoke:  ## whole path (log -> engine -> store -> overlay) vs the brute-force oracle
	$(PYTHON) benchmarks/e2e/run.py --smoke
	$(PYTHON) -m pytest benchmarks/e2e/tests -q

GATES := test reach claims perf obs chaos chaos-parallel determinism robustness datafault elasticity store geo e2e-smoke

verify:  ## every gate in turn, stopping at the first failure; prints each gate's wall time
	@times=""; status="all gates passed"; \
	for gate in $(GATES); do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$gate || status="$$gate FAILED"; \
		times="$$times$$(printf '  %-15s %5ds' $$gate $$(( $$(date +%s) - start )))\n"; \
		[ "$$status" = "all gates passed" ] || break; \
	done; \
	printf "\nverify: wall time per gate\n$$times"; \
	echo "verify: $$status"; \
	[ "$$status" = "all gates passed" ]
