"""Tests of :mod:`repro.analysis` — the invariant linter.

One positive and one negative fixture per rule (compiled from strings,
never from repo files), the suppression-comment contract, the JSON
reporter schema, configuration loading (including the Python 3.10
minimal-TOML fallback), CLI exit codes, and the self-hosting check
that the repo's own ``src/`` tree is clean under the repo's own
``pyproject.toml`` configuration.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
    load_config,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.config import _parse_minimal_toml, config_from_mapping
from repro.analysis.report import render_json
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parent.parent

KERNEL_PATH = "src/repro/greens/freespace.py"
WIRE_PATH = "src/repro/service/wire.py"


def run(source: str, rule: str, path: str = "src/repro/mod.py"):
    """Analyze a dedented snippet under one rule."""
    return analyze_source(textwrap.dedent(source), path=path,
                          config=AnalysisConfig(), select=[rule])


def active(findings):
    return [f for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# Framework
# ----------------------------------------------------------------------

class TestFramework:
    def test_registry_ships_the_documented_rules(self):
        ids = [r.id for r in all_rules()]
        assert ids == sorted(ids)
        assert {"RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                "RPR006", "RPR007", "RPR008", "RPR009",
                "RPR010"} <= set(ids)

    def test_get_rule_unknown_id(self):
        with pytest.raises(ConfigurationError, match="unknown rule"):
            get_rule("RPR999")

    def test_syntax_error_is_reported_not_raised(self):
        findings = analyze_source("def broken(:\n", path="x.py")
        assert len(findings) == 1
        assert findings[0].rule == "RPR000"
        assert "syntax error" in findings[0].message

    def test_finding_str_is_path_line_col(self):
        f = run("import warnings\nwarnings.warn('x')\n", "RPR005")[0]
        assert str(f).startswith("src/repro/mod.py:2:1: RPR005 ")


# ----------------------------------------------------------------------
# RPR001 — lock discipline
# ----------------------------------------------------------------------

RPR001_POSITIVE = """
class Scheduler:
    def status(self):
        return self._active_workers_locked()
"""

RPR001_NEGATIVE = """
class Scheduler:
    def status(self):
        with self._lock:
            return self._active_workers_locked()

    def _reclaim_expired_locked(self):
        return self._active_workers_locked()
"""

RPR001_REACQUIRE = """
class Scheduler:
    def _commit_slot_locked(self, slot_id):
        with self._lock:
            pass
"""

RPR001_CLOSURE = """
class Scheduler:
    def status(self):
        with self._lock:
            def later():
                return self._active_workers_locked()
            return later
"""


class TestLockDiscipline:
    def test_unguarded_call_flags(self):
        findings = run(RPR001_POSITIVE, "RPR001")
        assert len(findings) == 1
        assert "_active_workers_locked" in findings[0].message

    def test_with_block_and_locked_caller_pass(self):
        assert run(RPR001_NEGATIVE, "RPR001") == []

    def test_reacquire_inside_locked_body_flags(self):
        findings = run(RPR001_REACQUIRE, "RPR001")
        assert len(findings) == 1
        assert "re-acquires" in findings[0].message

    def test_with_block_does_not_cover_a_closure(self):
        # The closure runs later, when the with block is long gone.
        findings = run(RPR001_CLOSURE, "RPR001")
        assert len(findings) == 1

    def test_other_receivers_need_their_own_lock(self):
        src = """
        def drain(sched):
            with sched._lock:
                sched._reclaim_expired_locked()
            sched._reclaim_expired_locked()
        """
        findings = run(src, "RPR001")
        assert len(findings) == 1
        assert findings[0].line == 5


# ----------------------------------------------------------------------
# RPR002 — complex in-place arithmetic in kernels
# ----------------------------------------------------------------------

#: The exact pre-PR-5 freespace.py pattern: the 0.25j multiply lands
#: directly on hankel1's freshly returned buffer.
RPR002_PRE_PR5 = """
import numpy as np
from scipy.special import hankel1

def green2d(r, k):
    r = np.asarray(r, dtype=np.float64)
    return 0.25j * hankel1(0, k * r)
"""

RPR002_FIXED = """
import numpy as np
from scipy.special import hankel1

def green2d(r, k):
    r = np.asarray(r, dtype=np.float64)
    h0 = hankel1(0, k * r)
    return 0.25j * h0
"""


class TestComplexInplace:
    def test_flags_the_pre_pr5_freespace_pattern(self):
        findings = run(RPR002_PRE_PR5, "RPR002", path=KERNEL_PATH)
        assert len(findings) == 1
        assert findings[0].rule == "RPR002"
        assert "elide" in findings[0].message

    def test_materialized_form_passes(self):
        assert run(RPR002_FIXED, "RPR002", path=KERNEL_PATH) == []

    def test_augmented_complex_multiply_flags(self):
        src = "def f(out):\n    out *= 0.25j\n    return out\n"
        findings = run(src, "RPR002", path=KERNEL_PATH)
        assert len(findings) == 1
        assert "*=" in findings[0].message

    def test_augmented_add_is_allowed(self):
        # Elementwise complex accumulation is exact; only the
        # multiplicative ops carry the compound-rounding hazard.
        src = "def f(out, term):\n    out += term\n    return out\n"
        assert run(src, "RPR002", path=KERNEL_PATH) == []

    def test_rule_is_scoped_to_kernel_modules(self):
        findings = run(RPR002_PRE_PR5, "RPR002",
                       path="src/repro/service/server.py")
        assert findings == []

    def test_imag_inside_call_args_does_not_flag(self):
        # exp(...) * wofz(1j*b): the constant multiplies inside wofz's
        # argument, not against the returned buffer.
        src = """
        import numpy as np
        from scipy.special import wofz

        def f(a, b):
            return np.exp(a) * wofz(1j * b)
        """
        assert run(src, "RPR002", path=KERNEL_PATH) == []


# ----------------------------------------------------------------------
# RPR003 — hash purity
# ----------------------------------------------------------------------

RPR003_POSITIVE = """
from dataclasses import dataclass

@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-9
    check_finite: bool = True

    def to_spec(self):
        return {"tolerance": self.tolerance}
"""

RPR003_NEGATIVE = """
from dataclasses import dataclass

@dataclass(frozen=True)
class SolverOptions:
    HASH_EXCLUDED = frozenset({"check_finite"})

    tolerance: float = 1e-9
    check_finite: bool = True

    def to_spec(self):
        return {"tolerance": self.tolerance}
"""


class TestHashPurity:
    def test_unhashed_unexcluded_field_flags(self):
        findings = run(RPR003_POSITIVE, "RPR003")
        assert len(findings) == 1
        assert "check_finite" in findings[0].message

    def test_documented_exclusion_passes(self):
        assert run(RPR003_NEGATIVE, "RPR003") == []

    def test_asdict_with_pop_matches_exclusions(self):
        src = """
        import dataclasses
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class SolverOptions:
            HASH_EXCLUDED = frozenset({"batch_size"})

            order: int = 1
            batch_size: int | None = None

            def to_spec(self):
                spec = dataclasses.asdict(self)
                spec.pop("batch_size")
                return spec
        """
        assert run(src, "RPR003") == []

    def test_contradictory_exclusion_flags(self):
        src = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class SolverOptions:
            HASH_EXCLUDED = frozenset({"tolerance"})

            tolerance: float = 1e-9

            def to_spec(self):
                return {"tolerance": self.tolerance}
        """
        findings = run(src, "RPR003")
        assert len(findings) == 1
        assert "lie" in findings[0].message

    def test_stale_exclusion_flags(self):
        src = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class SolverOptions:
            HASH_EXCLUDED = frozenset({"gone"})

            tolerance: float = 1e-9

            def to_spec(self):
                return {"tolerance": self.tolerance}
        """
        findings = run(src, "RPR003")
        assert len(findings) == 1
        assert "stale" in findings[0].message

    def test_classes_without_to_spec_are_skipped(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class SweepOptions:
            anything: int = 0
        """
        assert run(src, "RPR003") == []


# ----------------------------------------------------------------------
# RPR004 — wire compatibility
# ----------------------------------------------------------------------

RPR004_DATACLASS_POSITIVE = """
from dataclasses import dataclass, field

@dataclass(frozen=True)
class WorkerResult:
    slot: str
    token: str
    worker: str
    key: str
    retries: int
    payload: dict | None = None
    error: str | None = None
    meta: dict = field(default_factory=dict)
"""

RPR004_DECODER_POSITIVE = """
def _decode_worker_result(doc):
    return doc["payload"]

_DECODERS = {"WorkerResult": _decode_worker_result}
"""

RPR004_DECODER_NEGATIVE = """
def _decode_worker_result(doc):
    slot, token, worker, key = _expect(doc, "slot", "token",
                                       "worker", "key")
    return (slot, token, worker, key, doc.get("payload"))

_DECODERS = {"WorkerResult": _decode_worker_result}
"""


class TestWireCompat:
    def test_new_field_without_default_flags(self):
        findings = run(RPR004_DATACLASS_POSITIVE, "RPR004",
                       path=WIRE_PATH)
        assert any("retries" in f.message and "no default" in f.message
                   for f in findings)

    def test_optional_fields_with_defaults_pass(self):
        src = RPR004_DATACLASS_POSITIVE.replace(
            "    retries: int\n", "")
        findings = run(src, "RPR004", path=WIRE_PATH)
        assert not any("WorkerResult" in f.message and "default"
                       in f.message for f in findings)

    def test_hard_subscript_of_optional_field_flags(self):
        findings = run(RPR004_DECODER_POSITIVE, "RPR004",
                       path=WIRE_PATH)
        assert any("hard-reads" in f.message and "'payload'"
                   in f.message for f in findings)

    def test_expect_of_required_fields_passes(self):
        findings = run(RPR004_DECODER_NEGATIVE, "RPR004",
                       path=WIRE_PATH)
        assert not any("payload" in f.message for f in findings)

    def test_missing_decoder_for_baseline_tag_flags(self):
        findings = run(RPR004_DECODER_POSITIVE, "RPR004",
                       path=WIRE_PATH)
        assert any("'WorkerClaim'" in f.message
                   and "no decoder" in f.message for f in findings)

    def test_rule_is_scoped_to_wire_modules(self):
        findings = run(RPR004_DATACLASS_POSITIVE, "RPR004",
                       path="src/repro/engine/spec.py")
        assert findings == []


# ----------------------------------------------------------------------
# RPR005 — warn stacklevel
# ----------------------------------------------------------------------

class TestWarnStacklevel:
    def test_missing_stacklevel_flags(self):
        src = "import warnings\nwarnings.warn('drift')\n"
        findings = run(src, "RPR005")
        assert len(findings) == 1
        assert "stacklevel" in findings[0].message

    def test_explicit_stacklevel_passes(self):
        src = ("import warnings\n"
               "warnings.warn('drift', stacklevel=2)\n")
        assert run(src, "RPR005") == []

    def test_from_import_is_recognized(self):
        src = "from warnings import warn\nwarn('drift')\n"
        assert len(run(src, "RPR005")) == 1

    def test_unrelated_warn_methods_pass(self):
        src = "log = get_logger()\nlog.warn('fine')\n"
        assert run(src, "RPR005") == []


# ----------------------------------------------------------------------
# RPR006 — monotonic durations
# ----------------------------------------------------------------------

RPR006_POSITIVE = """
import time

def timed(fn):
    start = time.time()
    fn()
    return time.time() - start
"""

RPR006_NEGATIVE = """
import time

def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
"""

RPR006_ATTRS = """
import time

class Ticket:
    def __init__(self):
        self.created_unix = time.time()

    def finish(self):
        self.finished_unix = time.time()
        return self.finished_unix - self.created_unix
"""


class TestMonotonicDuration:
    def test_wall_clock_pair_flags(self):
        findings = run(RPR006_POSITIVE, "RPR006")
        assert len(findings) == 1
        assert "monotonic" in findings[0].message

    def test_perf_counter_pair_passes(self):
        assert run(RPR006_NEGATIVE, "RPR006") == []

    def test_tainted_attributes_flag(self):
        findings = run(RPR006_ATTRS, "RPR006")
        assert len(findings) == 1
        assert findings[0].line == 10

    def test_deadline_arithmetic_does_not_flag(self):
        # One wall-clock operand is fine: cutoffs and deadlines are
        # timestamps, not durations.
        src = """
        import time

        def expired(older_than_s):
            cutoff = time.time() - older_than_s
            return cutoff
        """
        assert run(src, "RPR006") == []

    def test_keyword_fed_attributes_flag(self):
        src = """
        import time

        def admit(make):
            t = make(created_unix=time.time())
            return time.time() - t.created_unix
        """
        assert len(run(src, "RPR006")) == 1


# ----------------------------------------------------------------------
# RPR007 — broad except
# ----------------------------------------------------------------------

class TestBroadExcept:
    def test_bare_broad_except_flags(self):
        src = ("def f():\n"
               "    try:\n"
               "        risky()\n"
               "    except Exception:\n"
               "        pass\n")
        findings = run(src, "RPR007")
        assert len(findings) == 1
        assert "BLE001" in findings[0].message

    def test_justified_broad_except_passes(self):
        src = ("def f():\n"
               "    try:\n"
               "        risky()\n"
               "    except Exception as exc:"
               "  # noqa: BLE001 — crash containment at the boundary\n"
               "        report(exc)\n")
        assert run(src, "RPR007") == []

    def test_noqa_without_reason_still_flags(self):
        src = ("def f():\n"
               "    try:\n"
               "        risky()\n"
               "    except Exception:  # noqa: BLE001\n"
               "        pass\n")
        findings = run(src, "RPR007")
        assert len(findings) == 1
        assert "no reason" in findings[0].message

    def test_narrow_excepts_pass(self):
        src = ("def f():\n"
               "    try:\n"
               "        risky()\n"
               "    except (ValueError, KeyError):\n"
               "        pass\n")
        assert run(src, "RPR007") == []


# ----------------------------------------------------------------------
# RPR008 — telemetry no-op discipline
# ----------------------------------------------------------------------

TELEMETRY_PATH = "src/repro/engine/runtime.py"

RPR008_POSITIVE = """
from repro.telemetry import span

def execute(job):
    with span("job", key=compute_key(job)):
        return run(job)
"""

RPR008_NEGATIVE = """
from repro.telemetry import span

def execute(job):
    with span("job", key=job.key, n=len(job.items),
              freq=float(job.frequency_hz)):
        return run(job)
"""

RPR008_GUARDED = """
from repro import telemetry

def publish(slots):
    if telemetry.enabled():
        _M_QUEUE_DEPTH.set(sum(1 for s in slots if s.queued))
"""

RPR008_EARLY_RETURN = """
from repro import telemetry

def publish(slots):
    \"\"\"Docstrings must not defeat the leading-guard detection.\"\"\"
    if not telemetry.enabled():
        return
    _M_QUEUE_DEPTH.set(sum(1 for s in slots if s.queued))
"""


class TestTelemetryNoopDiscipline:
    def test_eager_call_in_span_argument_flags(self):
        findings = run(RPR008_POSITIVE, "RPR008", path=TELEMETRY_PATH)
        assert len(findings) == 1
        assert "compute_key" in findings[0].message

    def test_cheap_arguments_pass(self):
        assert run(RPR008_NEGATIVE, "RPR008", path=TELEMETRY_PATH) == []

    def test_metric_call_with_fstring_flags(self):
        src = ("def f(route):\n"
               "    _M_REQUESTS.inc(route=f'/api/{route}')\n")
        findings = run(src, "RPR008", path=TELEMETRY_PATH)
        assert len(findings) == 1
        assert "f-string" in findings[0].message

    def test_metric_call_with_comprehension_flags(self):
        src = ("def f(slots):\n"
               "    _M_QUEUE_DEPTH.set(sum(1 for s in slots))\n")
        findings = run(src, "RPR008", path=TELEMETRY_PATH)
        assert len(findings) == 1

    def test_enabled_guard_passes(self):
        assert run(RPR008_GUARDED, "RPR008", path=TELEMETRY_PATH) == []

    def test_leading_early_return_guard_passes(self):
        assert run(RPR008_EARLY_RETURN, "RPR008",
                   path=TELEMETRY_PATH) == []

    def test_monotonic_clock_reads_pass(self):
        src = ("import time\n"
               "def f(start):\n"
               "    _M_ROUND.observe(time.perf_counter() - start)\n")
        assert run(src, "RPR008", path=TELEMETRY_PATH) == []

    def test_non_metric_receivers_pass(self):
        src = ("def f(self, kind, cost, wall):\n"
               "    self.calibrator.observe(kind, cost, float(wall))\n"
               "    self._stop.set()\n"
               "    _SESSION.set(make_defaults())\n")
        assert run(src, "RPR008", path=TELEMETRY_PATH) == []

    def test_rule_is_scoped_to_telemetry_modules(self):
        assert run(RPR008_POSITIVE, "RPR008",
                   path="src/repro/stochastic/montecarlo.py") == []


# ----------------------------------------------------------------------
# RPR009 — wire-baseline freshness
# ----------------------------------------------------------------------

RPR009_UNRECORDED_GET = """
def _decode_worker_result(doc):
    slot, token, worker, key = _expect(doc, "slot", "token",
                                       "worker", "key")
    return (slot, token, worker, key, doc.get("payload"),
            doc.get("error"), doc.get("meta"), doc.get("retries"))

_DECODERS = {"WorkerResult": _decode_worker_result}
"""

RPR009_FRESH = """
def _decode_worker_result(doc):
    slot, token, worker, key = _expect(doc, "slot", "token",
                                       "worker", "key")
    return (slot, token, worker, key, doc.get("payload"),
            doc.get("error"), doc.get("meta"))

_DECODERS = {"WorkerResult": _decode_worker_result}
"""

RPR009_STALE_OPTIONAL = """
def _decode_worker_result(doc):
    slot, token, worker, key = _expect(doc, "slot", "token",
                                       "worker", "key")
    return (slot, token, worker, key, doc.get("payload"),
            doc.get("error"))

_DECODERS = {"WorkerResult": _decode_worker_result}
"""

RPR009_STRIP_STYLE = """
def _decode_point(doc):
    return PointResult(**_strip(doc))

_DECODERS = {"PointResult": _decode_point}
"""


class TestWireBaselineFreshness:
    def test_unrecorded_get_read_flags(self):
        findings = run(RPR009_UNRECORDED_GET, "RPR009", path=WIRE_PATH)
        assert any("'retries'" in f.message
                   and "does not record" in f.message for f in findings)

    def test_reads_matching_the_baseline_pass(self):
        assert run(RPR009_FRESH, "RPR009", path=WIRE_PATH) == []

    def test_stale_optional_entry_flags(self):
        findings = run(RPR009_STALE_OPTIONAL, "RPR009", path=WIRE_PATH)
        assert any("'meta'" in f.message and "stale" in f.message
                   for f in findings)

    def test_strip_style_decoders_are_exempt_from_staleness(self):
        # PointResult lists optional fields (pid, spans) but decodes via
        # _strip -> constructor with no by-name reads; that is the
        # documented pattern, not a stale table entry.
        assert run(RPR009_STRIP_STYLE, "RPR009", path=WIRE_PATH) == []

    def test_rule_is_scoped_to_wire_modules(self):
        assert run(RPR009_UNRECORDED_GET, "RPR009",
                   path="src/repro/engine/spec.py") == []


# ----------------------------------------------------------------------
# RPR010 — one factorization path per solver
# ----------------------------------------------------------------------

SOLVER_PATH = "src/repro/swm/solver2d.py"

RPR010_SCIPY_PER_SAMPLE = """
import numpy as np
from scipy.linalg import lu_factor, lu_solve

class Solver:
    def _solve_one(self, a, rhs):
        lu, piv = lu_factor(a, check_finite=False)
        return lu_solve((lu, piv), rhs, check_finite=False)

    def _factor_stack(self, a, rhs):
        return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
"""

RPR010_ONE_HELPER = """
import numpy as np

class Solver:
    def _solve_one(self, a, rhs):
        return self._factor_stack(a[None], rhs[None])[0]

    def _factor_stack(self, a, rhs):
        try:
            return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(exc) from exc
"""


RPR010_TWO_CALL_SITES = """
import numpy as np

class Solver:
    def _solve_one(self, a, rhs):
        return self._factor_stack(a[None], rhs[None])[0]

    def _solve_stack(self, a, rhs):
        return self._factor_stack(a, rhs)

    def _factor_stack(self, a, rhs):
        return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
"""

RPR010_ONE_CALL_SITE_EACH = """
import numpy as np

def _factor_stack(a, rhs):
    return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]

def _factor_stack_2d(a, rhs):
    return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]

class Solver:
    def _solve_stack(self, a, rhs, planar):
        if planar:
            return _factor_stack_2d(a, rhs)
        return _factor_stack(a, rhs)
"""


class TestOneFactorization:
    def test_scipy_factorization_flags(self):
        findings = run(RPR010_SCIPY_PER_SAMPLE, "RPR010",
                       path=SOLVER_PATH)
        assert [f.line for f in findings] == [7, 8]
        assert findings[0].message.startswith("scipy.linalg.lu_factor ")

    def test_module_and_attribute_imports_resolve(self):
        src = """
        import scipy
        import scipy.linalg as sla

        def f(a, b):
            return sla.solve(a, b) + scipy.linalg.cho_solve(a, b)
        """
        findings = run(src, "RPR010", path=SOLVER_PATH)
        assert len(findings) == 2

    def test_numpy_solve_outside_the_helper_flags(self):
        src = """
        import numpy as np

        def solve_one(a, rhs):
            return np.linalg.solve(a, rhs)
        """
        findings = run(src, "RPR010", path=SOLVER_PATH)
        assert len(findings) == 1
        assert "_factor_stack" in findings[0].message

    def test_one_stacked_helper_passes(self):
        assert run(RPR010_ONE_HELPER, "RPR010", path=SOLVER_PATH) == []

    def test_non_solve_linalg_calls_pass(self):
        src = """
        import numpy as np
        from scipy.linalg import norm

        def f(a):
            return np.linalg.norm(a) + norm(a)
        """
        assert run(src, "RPR010", path=SOLVER_PATH) == []

    def test_rule_is_scoped_to_kernel_modules(self):
        assert run(RPR010_SCIPY_PER_SAMPLE, "RPR010",
                   path="src/repro/stochastic/hermite.py") == []
        assert run(RPR010_TWO_CALL_SITES, "RPR010",
                   path="src/repro/stochastic/hermite.py") == []

    def test_second_helper_call_site_flags(self):
        findings = run(RPR010_TWO_CALL_SITES, "RPR010", path=SOLVER_PATH)
        assert [f.line for f in findings] == [6, 9]
        assert all(f.message.startswith("_factor_stack() has 2 call sites")
                   for f in findings)

    def test_one_call_site_per_helper_passes(self):
        assert run(RPR010_ONE_CALL_SITE_EACH, "RPR010",
                   path=SOLVER_PATH) == []


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------

class TestSuppression:
    SRC = ("import warnings\n"
           "warnings.warn('x')  "
           "# repro: ignore[RPR005] exercised by the suppression tests\n")

    def test_suppression_with_reason(self):
        findings = analyze_source(self.SRC, select=["RPR005"])
        assert len(findings) == 1
        assert findings[0].suppressed
        assert (findings[0].suppression_reason
                == "exercised by the suppression tests")

    def test_suppression_without_reason_does_not_silence(self):
        src = ("import warnings\n"
               "warnings.warn('x')  # repro: ignore[RPR005]\n")
        findings = analyze_source(src, select=["RPR005"])
        assert len(findings) == 1
        assert not findings[0].suppressed
        assert "no reason" in findings[0].message

    def test_suppression_for_other_rule_does_not_apply(self):
        src = ("import warnings\n"
               "warnings.warn('x')  # repro: ignore[RPR001] wrong id\n")
        findings = analyze_source(src, select=["RPR005"])
        assert len(findings) == 1
        assert not findings[0].suppressed

    def test_comment_line_covers_the_next_line(self):
        src = ("import warnings\n"
               "# repro: ignore[RPR005] carried above a long call\n"
               "warnings.warn('x')\n")
        findings = analyze_source(src, select=["RPR005"])
        assert len(findings) == 1
        assert findings[0].suppressed

    def test_multiple_rule_ids_in_one_comment(self):
        src = ("import warnings\n"
               "warnings.warn('x')  "
               "# repro: ignore[RPR001, RPR005] both silenced\n")
        findings = analyze_source(src, select=["RPR005"])
        assert findings[0].suppressed


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------

class TestJsonReport:
    def test_schema(self):
        findings = analyze_source(
            "import warnings\nwarnings.warn('x')\n",
            path="src/repro/mod.py", select=["RPR005"])
        doc = render_json(findings, files_scanned=1)
        assert doc["format"] == "repro-analysis"
        assert doc["version"] == 1
        assert doc["files_scanned"] == 1
        assert doc["summary"] == {
            "findings": 1, "suppressed": 0, "by_rule": {"RPR005": 1}}
        (entry,) = doc["findings"]
        assert set(entry) == {"rule", "path", "line", "col", "message",
                              "suppressed", "suppression_reason"}
        assert entry["rule"] == "RPR005"
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_suppressed_findings_ride_along_but_do_not_count(self):
        findings = analyze_source(TestSuppression.SRC, select=["RPR005"])
        doc = render_json(findings, files_scanned=1)
        assert doc["summary"] == {
            "findings": 0, "suppressed": 1, "by_rule": {}}
        assert doc["findings"][0]["suppressed"] is True


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

class TestConfig:
    def test_dash_and_underscore_keys(self):
        cfg = config_from_mapping({"kernel-globs": ["*/k/*.py"],
                                   "lock_attr": "_mutex"})
        assert cfg.kernel_globs == ("*/k/*.py",)
        assert cfg.lock_attr == "_mutex"

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            config_from_mapping({"rules": []})

    def test_bad_type_is_an_error(self):
        with pytest.raises(ConfigurationError, match="list of strings"):
            config_from_mapping({"paths": "src"})

    def test_minimal_toml_fallback_parses_the_repo_section(self):
        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        table = _parse_minimal_toml(text)
        cfg = config_from_mapping(table)
        assert cfg.paths == ("src",)
        assert "*/greens/*.py" in cfg.kernel_globs
        assert cfg.lock_attr == "_lock"

    def test_minimal_toml_multiline_lists(self):
        table = _parse_minimal_toml(
            '[tool.repro.analysis]\n'
            'exclude = [\n    "a/*.py",\n    "b/*.py",\n]\n'
            'lock-attr = "_guard"\n'
            '[tool.other]\nexclude = ["ignored"]\n')
        assert table["exclude"] == ["a/*.py", "b/*.py"]
        assert table["lock-attr"] == "_guard"

    def test_load_config_reads_the_repo_pyproject(self):
        cfg = load_config(pyproject=REPO_ROOT / "pyproject.toml")
        assert cfg.paths == ("src",)
        assert cfg.wire_globs == ("*/service/wire.py",
                                  "*/engine/results.py")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("import warnings\nwarnings.warn('x')\n",
                       encoding="utf-8")
        assert lint_main([str(bad), "--select", "RPR005"]) == 1
        out = capsys.readouterr().out
        assert "RPR005" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        good = tmp_path / "mod.py"
        good.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_zero_when_all_findings_suppressed(self, tmp_path,
                                                    capsys):
        src = ("import warnings\n"
               "warnings.warn('x')  # repro: ignore[RPR005] fixture\n")
        f = tmp_path / "mod.py"
        f.write_text(src, encoding="utf-8")
        assert lint_main([str(f), "--select", "RPR005"]) == 0

    def test_json_format(self, tmp_path, capsys):
        f = tmp_path / "mod.py"
        f.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(f), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-analysis"

    def test_exit_two_on_missing_path(self, capsys):
        assert lint_main(["definitely/not/there"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR001" in out and "RPR007" in out

    def test_runner_lint_subcommand_delegates(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main
        f = tmp_path / "mod.py"
        f.write_text("x = 1\n", encoding="utf-8")
        assert runner_main(["lint", str(f)]) == 0
        assert "clean" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Self-hosting
# ----------------------------------------------------------------------

class TestSelfHosting:
    def test_repo_src_tree_is_clean(self):
        """The analyzer's own acceptance gate: zero unsuppressed
        findings over src/ under the repo's configuration, and every
        suppression that does exist carries a reason."""
        cfg = load_config(pyproject=REPO_ROOT / "pyproject.toml")
        findings, files_scanned = analyze_paths(
            [REPO_ROOT / "src"], cfg)
        assert files_scanned > 50
        unsuppressed = active(findings)
        assert unsuppressed == [], "\n".join(map(str, unsuppressed))
        for f in findings:
            assert f.suppressed and f.suppression_reason
