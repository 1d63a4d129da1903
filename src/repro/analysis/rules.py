"""The shipped rules (RPR001–RPR010).

Each rule encodes an invariant this repo has broken and fixed by hand
at least once; the rule docstrings cite the incident. All checks are
syntactic (stdlib ``ast``): no imports are executed, so a rule firing
means the *pattern* is present — a suppression comment with a reason
is the escape hatch for the cases where the pattern is deliberate.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from .core import Finding, ModuleContext, Rule, register_rule
from .wire_baseline import WIRE_BASELINE

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

class _Imports:
    """Resolve call targets to dotted names via the module's imports."""

    def __init__(self, tree: ast.Module) -> None:
        self.modules: dict[str, str] = {}
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.modules[bound] = (alias.name if alias.asname
                                           else alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    def dotted(self, func: ast.expr) -> str | None:
        """``warnings.warn`` / ``time.time`` style name for a callee."""
        if isinstance(func, ast.Name):
            return self.names.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                         ast.Name):
            module = self.modules.get(func.value.id)
            if module is not None:
                return f"{module}.{func.attr}"
        return None


def _imports(ctx: ModuleContext) -> _Imports:
    cached = getattr(ctx, "_rpr_imports", None)
    if cached is None:
        cached = _Imports(ctx.tree)
        ctx._rpr_imports = cached  # type: ignore[attr-defined]
    return cached


def _walk_same_scope(body: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function scopes
    (code in a closure does not run where it is written)."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _SCOPES):
                stack.append(child)


def _subtree_has(node: ast.AST, predicate) -> bool:
    return any(predicate(n) for n in ast.walk(node))


# ----------------------------------------------------------------------
# RPR001 — lock discipline
# ----------------------------------------------------------------------

@register_rule
class LockDiscipline(Rule):
    """``*_locked`` callees assume the caller holds ``self._lock``.

    The scheduler (service/scheduler.py) names every
    must-hold-the-lock helper with a ``_locked`` suffix and guards a
    non-reentrant ``threading.Lock``; calling one unguarded corrupts
    slot state, and re-acquiring inside one deadlocks. This rule makes
    both mistakes mechanical: a ``*_locked`` call must sit lexically
    inside ``with <recv>._lock:`` (in the *same* function scope — a
    ``with`` outside a closure does not cover the closure body) or
    inside a function itself named ``*_locked``; and a ``*_locked``
    body must not take the lock again.
    """

    id = "RPR001"
    name = "lock-discipline"
    description = ("*_locked calls need a lexical `with self._lock:`; "
                   "*_locked bodies must not re-acquire the lock")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        lock = ctx.config.lock_attr
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                callee = self._callee_name(node)
                if (callee is not None and callee.endswith("_locked")
                        and not self._held(ctx, node, lock)):
                    yield self.finding(
                        ctx, node,
                        f"call to {callee}() outside a lexical "
                        f"`with <recv>.{lock}:` block (and not from a "
                        "*_locked method); the callee assumes the lock "
                        "is held")
            elif isinstance(node, _FUNCS) and node.name.endswith("_locked"):
                yield from self._reacquisitions(ctx, node, lock)

    @staticmethod
    def _callee_name(call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Attribute):
            return call.func.attr
        if isinstance(call.func, ast.Name):
            return call.func.id
        return None

    def _held(self, ctx: ModuleContext, call: ast.Call,
              lock: str) -> bool:
        recv = (call.func.value if isinstance(call.func, ast.Attribute)
                else None)
        recv_dump = None if recv is None else ast.dump(recv)
        for anc in ctx.ancestors(call):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    expr = item.context_expr
                    if (isinstance(expr, ast.Attribute)
                            and expr.attr == lock
                            and (recv_dump is None
                                 or ast.dump(expr.value) == recv_dump)):
                        return True
            elif isinstance(anc, _FUNCS):
                # Caller contract: a *_locked method may call sibling
                # *_locked methods on self without re-taking the lock.
                return (anc.name.endswith("_locked")
                        and (recv is None
                             or (isinstance(recv, ast.Name)
                                 and recv.id == "self")))
            elif isinstance(anc, ast.Lambda):
                return False
        return False

    def _reacquisitions(self, ctx: ModuleContext,
                        fn: ast.FunctionDef | ast.AsyncFunctionDef,
                        lock: str) -> Iterator[Finding]:
        for node in _walk_same_scope(fn.body):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Attribute) and expr.attr == lock:
                        yield self.finding(
                            ctx, node,
                            f"{fn.name}() re-acquires .{lock} it already "
                            "holds by contract (deadlock with a "
                            "non-reentrant lock)")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "acquire"
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == lock):
                yield self.finding(
                    ctx, node,
                    f"{fn.name}() calls .{lock}.acquire() on a lock it "
                    "already holds by contract")


# ----------------------------------------------------------------------
# RPR002 — complex in-place arithmetic in kernel modules
# ----------------------------------------------------------------------

@register_rule
class ComplexInplace(Rule):
    """No in-place (or elidable) complex multiplies in kernel code.

    numpy's in-place complex multiply can round the final ulp
    differently from the out-of-place expression, and numpy elides
    temporaries — ``0.25j * hankel1(...)`` may multiply *in place* into
    the call's freshly returned buffer depending on alignment. That is
    exactly how per-sample and batched solves diverged in
    ``greens/freespace.py`` before PR 5 materialized the Hankel terms.
    Scoped to ``kernel-globs`` (``greens/``, ``swm/``); flags
    ``*=``/``/=``/``**=``/``@=`` statements and ``Call``-operand
    multiplies whose other operand carries an imaginary constant.
    Fix by naming the call result first (``h0 = hankel1(...)``).
    """

    id = "RPR002"
    name = "complex-inplace"
    description = ("in-place or temporary-eliding complex multiplies "
                   "in kernel modules (greens/, swm/)")

    _AUG_OPS = (ast.Mult, ast.Div, ast.Pow, ast.MatMult)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.matches(ctx.config.kernel_globs):
            return
        flagged: set[int] = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, self._AUG_OPS)):
                op = type(node.op).__name__
                yield self.finding(
                    ctx, node,
                    f"in-place {op} ({self._aug_symbol(node.op)}) in a "
                    "kernel module; in-place complex multiplies can "
                    "round differently from the out-of-place form — "
                    "assign to a fresh name instead")
            elif (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mult)
                    and node.lineno not in flagged
                    and self._elidable(node)):
                flagged.add(node.lineno)
                yield self.finding(
                    ctx, node,
                    "imaginary-constant multiply against a call result; "
                    "numpy may elide the temporary and multiply in "
                    "place, changing the final ulp by buffer alignment "
                    "— materialize the call result to a local first")

    @staticmethod
    def _aug_symbol(op: ast.operator) -> str:
        return {"Mult": "*=", "Div": "/=", "Pow": "**=",
                "MatMult": "@="}[type(op).__name__]

    @staticmethod
    def _elidable(node: ast.BinOp) -> bool:
        # The imaginary constant must sit in the multiply chain itself;
        # one buried inside a call's arguments (``wofz(1j * z)``) does
        # not multiply that call's returned buffer.
        def has_imag(n: ast.AST) -> bool:
            if isinstance(n, ast.Constant):
                return isinstance(n.value, complex)
            if isinstance(n, ast.Call):
                return False
            return any(has_imag(c) for c in ast.iter_child_nodes(n))

        def has_call(n: ast.AST) -> bool:
            return _subtree_has(n, lambda x: isinstance(x, ast.Call))

        return ((has_imag(node.left) and has_call(node.right))
                or (has_call(node.left) and has_imag(node.right)))


# ----------------------------------------------------------------------
# RPR003 — hash purity of Options/Spec dataclasses
# ----------------------------------------------------------------------

@register_rule
class HashPurity(Rule):
    """Every Options/Spec field is hashed or documented as excluded.

    ``to_spec()`` is the content-hash boundary: a field it silently
    drops changes behavior without changing the hash (or, excluded on
    purpose, must never reach solver payloads). ``check_finite``
    falling out of the hash — splitting cache entries — is the PR 5
    incident. A dataclass named ``*Options``/``*Spec`` with a
    ``to_spec`` method must either consume each field (``self.f`` or
    ``asdict(self)`` without a matching ``.pop("f")``) or list it in a
    class-level ``HASH_EXCLUDED = frozenset({...})``. Stale or
    contradictory exclusions are findings too.
    """

    id = "RPR003"
    name = "hash-purity"
    description = ("*Options/*Spec dataclass fields must be consumed by "
                   "to_spec or listed in HASH_EXCLUDED")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not (node.name.endswith("Options")
                    or node.name.endswith("Spec")):
                continue
            if not self._is_dataclass(node):
                continue
            to_spec = next(
                (n for n in node.body if isinstance(n, _FUNCS)
                 and n.name == "to_spec"), None)
            if to_spec is None:
                continue
            yield from self._check_class(ctx, node, to_spec)

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name == "dataclass":
                return True
        return False

    def _check_class(self, ctx: ModuleContext, cls: ast.ClassDef,
                     to_spec: ast.AST) -> Iterator[Finding]:
        fields: dict[str, ast.AnnAssign] = {}
        excluded: set[str] = set()
        excluded_node: ast.AST | None = None
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.dump(stmt.annotation)):
                fields[stmt.target.id] = stmt
            elif (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name)
                            and t.id == "HASH_EXCLUDED"
                            for t in stmt.targets)):
                excluded_node = stmt
                excluded = {
                    n.value for n in ast.walk(stmt.value)
                    if isinstance(n, ast.Constant)
                    and isinstance(n.value, str)
                }
        consumed, popped, asdict_all = self._consumption(to_spec)
        if asdict_all:
            consumed |= set(fields) - popped
        for name, stmt in fields.items():
            if name in consumed and name in excluded:
                yield self.finding(
                    ctx, stmt,
                    f"{cls.name}.{name} is listed in HASH_EXCLUDED but "
                    "to_spec still consumes it; the exclusion is a lie "
                    "— drop it or stop hashing the field")
            elif name not in consumed and name not in excluded:
                yield self.finding(
                    ctx, stmt,
                    f"{cls.name}.{name} is neither consumed by to_spec "
                    "nor listed in HASH_EXCLUDED; a behavior-affecting "
                    "field outside the content hash splits or poisons "
                    "the cache")
        for name in sorted(excluded - set(fields)):
            yield self.finding(
                ctx, excluded_node or cls,
                f"{cls.name}.HASH_EXCLUDED names {name!r} which is not "
                "a dataclass field (stale exclusion)")

    @staticmethod
    def _consumption(to_spec: ast.AST) -> tuple[set[str], set[str], bool]:
        consumed: set[str] = set()
        popped: set[str] = set()
        asdict_all = False
        for node in ast.walk(to_spec):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                consumed.add(node.attr)
            elif isinstance(node, ast.Call):
                func = node.func
                callee = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if (callee == "asdict" and node.args
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id == "self"):
                    asdict_all = True
                elif (callee == "pop" and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    popped.add(node.args[0].value)
        return consumed, popped, asdict_all


# ----------------------------------------------------------------------
# RPR004 — wire compatibility
# ----------------------------------------------------------------------

@register_rule
class WireCompat(Rule):
    """Wire messages stay decodable when their optional fields are absent.

    The contract lives in ``repro.analysis.wire_baseline``: per tag,
    which fields every compatible peer sends (``required``) and which
    arrived later (``optional``). In modules matching ``wire-globs``:
    dataclass fields named in ``optional`` (or unknown to the
    baseline) must carry defaults; decoder functions (resolved through
    the module's ``_DECODERS`` dict) must not hard-read
    (``doc["f"]`` / ``_expect``) anything outside ``required``; and
    the decoder dict and baseline must cover the same tag set.
    """

    id = "RPR004"
    name = "wire-compat"
    description = ("wire dataclasses need defaults, and decoders .get-"
                   "side reads, for fields newer than the baseline")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.matches(ctx.config.wire_globs):
            return
        decoder_map, decoders_node = self._decoder_map(ctx)
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name in WIRE_BASELINE):
                yield from self._check_dataclass(ctx, node)
            elif isinstance(node, _FUNCS) and node.name in decoder_map:
                yield from self._check_decoder(ctx, node,
                                               decoder_map[node.name])
        if decoders_node is not None:
            known = set(decoder_map.values())
            for tag in sorted(set(WIRE_BASELINE) - known):
                yield self.finding(
                    ctx, decoders_node,
                    f"wire baseline tag {tag!r} has no decoder in "
                    "_DECODERS; documents from compatible peers would "
                    "stop decoding")
            for tag in sorted(known - set(WIRE_BASELINE)):
                yield self.finding(
                    ctx, decoders_node,
                    f"decoder tag {tag!r} is not in the wire baseline; "
                    "record it in repro.analysis.wire_baseline (with "
                    "its since-version and field sets)")

    @staticmethod
    def _decoder_map(ctx: ModuleContext
                     ) -> tuple[dict[str, str], ast.AST | None]:
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "_DECODERS"
                            for t in node.targets)
                    and isinstance(node.value, ast.Dict)):
                mapping: dict[str, str] = {}
                for key, value in zip(node.value.keys, node.value.values):
                    if (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and isinstance(value, ast.Name)):
                        mapping[value.id] = key.value
                return mapping, node
        return {}, None

    def _check_dataclass(self, ctx: ModuleContext,
                         cls: ast.ClassDef) -> Iterator[Finding]:
        entry = WIRE_BASELINE[cls.name]
        required = set(entry["required"])
        seen: set[str] = set()
        for stmt in cls.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.dump(stmt.annotation)):
                continue
            name = stmt.target.id
            seen.add(name)
            if stmt.value is None and name not in required:
                yield self.finding(
                    ctx, stmt,
                    f"wire field {cls.name}.{name} has no default but "
                    "is not in the baseline's required set; documents "
                    "from older peers omit it and would fail to decode "
                    "— add a default (and record it as optional in "
                    "wire_baseline)")
        for name in sorted(required - seen):
            yield self.finding(
                ctx, cls,
                f"baseline-required wire field {cls.name}.{name} is "
                "missing from the dataclass; encoded documents would "
                "no longer satisfy the compat contract")

    def _check_decoder(self, ctx: ModuleContext,
                       fn: ast.FunctionDef | ast.AsyncFunctionDef,
                       tag: str) -> Iterator[Finding]:
        entry = WIRE_BASELINE.get(tag)
        if entry is None:
            return
        required = set(entry["required"])
        doc = fn.args.args[0].arg if fn.args.args else None
        if doc is None:
            return
        for node in ast.walk(fn):
            field = None
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == doc
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                field = node.slice.value
                if field not in required:
                    yield self.finding(
                        ctx, node,
                        f"decoder for {tag!r} hard-reads "
                        f"{doc}[{field!r}] but the baseline does not "
                        "require that field on the wire; use "
                        f"{doc}.get({field!r}, ...) so older documents "
                        "keep decoding")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_expect"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == doc):
                for arg in node.args[1:]:
                    if (isinstance(arg, ast.Constant)
                            and isinstance(arg.value, str)
                            and arg.value not in required):
                        yield self.finding(
                            ctx, node,
                            f"decoder for {tag!r} requires field "
                            f"{arg.value!r} via _expect but the "
                            "baseline does not guarantee it; use "
                            f"{doc}.get({arg.value!r}, ...) instead")


# ----------------------------------------------------------------------
# RPR005 — warnings.warn without stacklevel
# ----------------------------------------------------------------------

@register_rule
class WarnStacklevel(Rule):
    """``warnings.warn`` must say whose line the warning points at.

    Without ``stacklevel`` the warning blames the library line that
    raised it instead of the caller that configured it — the
    attribution bug PR 4 threaded ``stacklevel`` through both solvers
    to fix. Accepts the keyword or a third positional argument.
    """

    id = "RPR005"
    name = "warn-stacklevel"
    description = "warnings.warn calls must pass an explicit stacklevel"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imports = _imports(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if imports.dotted(node.func) != "warnings.warn":
                continue
            has_kw = any(kw.arg == "stacklevel" for kw in node.keywords)
            if not has_kw and len(node.args) < 3:
                yield self.finding(
                    ctx, node,
                    "warnings.warn without an explicit stacklevel; the "
                    "warning will point at this line instead of the "
                    "caller that should change its code")


# ----------------------------------------------------------------------
# RPR006 — durations from wall-clock differences
# ----------------------------------------------------------------------

@register_rule
class MonotonicDuration(Rule):
    """Durations come from monotonic clocks, not ``time.time()`` pairs.

    Wall clocks step under NTP; a duration computed as a difference of
    two ``time.time()`` reads can be negative or wildly wrong (the
    scheduler grew a ``time.monotonic()`` twin for exactly this).
    Evidence-based: a subtraction is flagged only when *both* operands
    provably carry wall-clock values — direct ``time.time()`` calls,
    locals assigned from one, or attributes/keywords anywhere in the
    module that are fed from one (``self.t0 = time.time()``,
    ``Foo(created_unix=time.time())``,
    ``field(default_factory=time.time)``). ``time.time() - deadline``
    does not flag: deadlines are not evidenced.
    """

    id = "RPR006"
    name = "monotonic-duration"
    description = ("durations must not be differences of time.time() "
                   "wall-clock reads")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imports = _imports(ctx)
        tainted_attrs = self._tainted_attrs(ctx, imports)
        local_cache: dict[ast.AST, set[str]] = {}
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Sub)):
                continue
            fn = ctx.enclosing_function(node)
            if fn not in local_cache:
                local_cache[fn] = self._tainted_locals(fn, imports)
            locals_ = local_cache[fn]
            if (self._evidenced(node.left, imports, tainted_attrs, locals_)
                    and self._evidenced(node.right, imports,
                                        tainted_attrs, locals_)):
                yield self.finding(
                    ctx, node,
                    "duration computed as a difference of wall-clock "
                    "time.time() reads; wall clocks step under NTP — "
                    "pair time.monotonic() or time.perf_counter() "
                    "reads instead (keep time.time() for timestamps "
                    "only)")

    @staticmethod
    def _is_wallclock_call(node: ast.AST, imports: _Imports) -> bool:
        return (isinstance(node, ast.Call)
                and imports.dotted(node.func) == "time.time")

    def _tainted_attrs(self, ctx: ModuleContext,
                       imports: _Imports) -> set[str]:
        tainted: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and self._is_wallclock_call(
                    node.value, imports):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        tainted.add(target.attr)
            elif (isinstance(node, ast.AnnAssign)
                    and node.value is not None
                    and self._is_wallclock_call(node.value, imports)
                    and isinstance(node.target, ast.Attribute)):
                tainted.add(node.target.attr)
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg is None:
                        continue
                    if self._is_wallclock_call(kw.value, imports):
                        tainted.add(kw.arg)
                    elif (kw.arg == "default_factory"
                            and imports.dotted(kw.value) == "time.time"):
                        parent = ctx.parents.get(node)
                        if (isinstance(parent, ast.AnnAssign)
                                and isinstance(parent.target, ast.Name)):
                            tainted.add(parent.target.id)
        return tainted

    def _tainted_locals(self, fn: ast.AST | None,
                        imports: _Imports) -> set[str]:
        if fn is None:
            return set()
        tainted: set[str] = set()
        for node in _walk_same_scope(fn.body):  # type: ignore[attr-defined]
            if isinstance(node, ast.Assign) and self._is_wallclock_call(
                    node.value, imports):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        return tainted

    def _evidenced(self, expr: ast.AST, imports: _Imports,
                   attrs: set[str], locals_: set[str]) -> bool:
        if self._is_wallclock_call(expr, imports):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in locals_
        if isinstance(expr, ast.Attribute):
            return expr.attr in attrs
        if isinstance(expr, ast.BoolOp):
            return all(self._evidenced(v, imports, attrs, locals_)
                       for v in expr.values)
        if isinstance(expr, ast.IfExp):
            return (self._evidenced(expr.body, imports, attrs, locals_)
                    and self._evidenced(expr.orelse, imports, attrs,
                                        locals_))
        return False


# ----------------------------------------------------------------------
# RPR007 — broad except without a stated reason
# ----------------------------------------------------------------------

@register_rule
class BroadExcept(Rule):
    """``except Exception`` must say why it is allowed to be broad.

    The executors/scheduler/server/worker boundaries catch everything
    on purpose (first-failure-wins, crash containment) — but each such
    site must carry a ``# noqa: BLE001 — reason`` comment on the
    ``except`` line so the intent is auditable. A bare broad catch is
    indistinguishable from a swallowed bug.
    """

    id = "RPR007"
    name = "broad-except"
    description = ("`except Exception` needs a `# noqa: BLE001 — "
                   "reason` justification on the except line")

    _NOQA_RE = re.compile(r"#\s*noqa:\s*BLE001\b[\s:\-—–]*(\S.*)?$")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            line = (ctx.lines[node.lineno - 1]
                    if node.lineno <= len(ctx.lines) else "")
            match = self._NOQA_RE.search(line)
            if match is None:
                yield self.finding(
                    ctx, node,
                    "broad `except Exception` without a justification; "
                    "add `# noqa: BLE001 — reason` on the except line "
                    "or narrow the exception type")
            elif not (match.group(1) or "").strip():
                yield self.finding(
                    ctx, node,
                    "broad `except Exception` carries a noqa comment "
                    "but no reason; say why the broad catch is safe")

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        names = []
        if isinstance(type_node, ast.Name):
            names = [type_node.id]
        elif isinstance(type_node, ast.Tuple):
            names = [e.id for e in type_node.elts
                     if isinstance(e, ast.Name)]
        return any(n in ("Exception", "BaseException") for n in names)


# ----------------------------------------------------------------------
# RPR008 — telemetry no-op discipline
# ----------------------------------------------------------------------

@register_rule
class TelemetryNoopDiscipline(Rule):
    """Instrumentation must cost one flag check when telemetry is off.

    ``span(...)`` and the metric methods (``.inc``/``.observe``/
    ``.set`` on ``_M_*`` / ``self._m_*`` registries) no-op internally
    when ``REPRO_TELEMETRY`` is disabled — but *argument* expressions
    are evaluated at the call site regardless. An f-string, a
    ``.format()``, a comprehension, or a non-trivial call in the
    argument list silently taxes every disabled run (the overhead the
    hot-path benchmarks exist to catch, previously guarded only by
    convention). In modules matching ``telemetry-globs``, each
    instrumentation call must either take cheap arguments (names,
    attributes, arithmetic, whitelisted builtins like ``len``/``float``
    and monotonic-clock reads) or sit behind an explicit
    ``telemetry.enabled()`` guard — an enclosing ``if`` or a leading
    ``if not ...enabled(): return`` in the enclosing function.
    """

    id = "RPR008"
    name = "telemetry-noop"
    description = ("instrumentation arguments must stay cheap (or sit "
                   "behind an enabled() guard) when telemetry is off")

    _CHEAP_BUILTINS = frozenset({"len", "int", "float", "str", "bool",
                                 "abs", "min", "max", "round"})
    _CHEAP_DOTTED = frozenset({"time.perf_counter", "time.monotonic",
                               "time.time", "os.getpid"})
    _COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.matches(ctx.config.telemetry_globs):
            return
        imports = _imports(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = self._instrumentation_kind(node)
            if kind is None or self._guarded(ctx, node):
                continue
            offense = self._eager_offense(node, imports)
            if offense is not None:
                yield self.finding(
                    ctx, node,
                    f"{kind} {offense} even when telemetry is "
                    "disabled; bind the value outside the call, pass "
                    "raw operands, or put the site behind "
                    "`telemetry.enabled()`")

    @staticmethod
    def _instrumentation_kind(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "span":
            return "span() argument"
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "span":
            return "span() argument"
        if func.attr in ("inc", "observe", "set"):
            recv = func.value
            # Metric objects follow the repo convention: module-level
            # _M_UPPER names or self._m_lower attributes. Anything else
            # (`self._stop.set()`, `calibrator.observe(...)`) is real
            # work, not instrumentation.
            if ((isinstance(recv, ast.Name) and recv.id.startswith("_M_"))
                    or (isinstance(recv, ast.Attribute)
                        and recv.attr.startswith("_m_"))):
                return f"metric .{func.attr}() argument"
        return None

    @staticmethod
    def _is_enabled_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and ((isinstance(node.func, ast.Name)
                      and node.func.id == "enabled")
                     or (isinstance(node.func, ast.Attribute)
                         and node.func.attr == "enabled")))

    def _guarded(self, ctx: ModuleContext, call: ast.Call) -> bool:
        for anc in ctx.ancestors(call):
            if (isinstance(anc, ast.If)
                    and _subtree_has(anc.test, self._is_enabled_call)):
                return True
            if isinstance(anc, _SCOPES):
                # A guard outside a closure does not cover the closure
                # body; but a function opening with
                # `if not ...enabled(): return` covers everything in it.
                body = getattr(anc, "body", None) or []
                if not isinstance(body, list):
                    body = []
                stmts = [s for s in body
                         if not (isinstance(s, ast.Expr)
                                 and isinstance(s.value, ast.Constant)
                                 and isinstance(s.value.value, str))]
                first = stmts[0] if stmts else None
                return (isinstance(first, ast.If)
                        and isinstance(first.test, ast.UnaryOp)
                        and isinstance(first.test.op, ast.Not)
                        and _subtree_has(first.test.operand,
                                         self._is_enabled_call)
                        and any(isinstance(s, ast.Return)
                                for s in first.body))
        return False

    def _eager_offense(self, call: ast.Call,
                       imports: _Imports) -> str | None:
        exprs = list(call.args) + [kw.value for kw in call.keywords]
        for expr in exprs:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (isinstance(func, ast.Name)
                            and func.id in self._CHEAP_BUILTINS):
                        continue
                    if imports.dotted(func) in self._CHEAP_DOTTED:
                        continue
                    name = (func.attr if isinstance(func, ast.Attribute)
                            else getattr(func, "id", "<expr>"))
                    return f"calls {name}() eagerly"
                if isinstance(node, ast.JoinedStr) and any(
                        isinstance(v, ast.FormattedValue)
                        for v in node.values):
                    return "builds an f-string eagerly"
                if (isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Mod)
                        and isinstance(node.left, ast.Constant)
                        and isinstance(node.left.value, str)):
                    return "%-formats a string eagerly"
                if isinstance(node, self._COMPREHENSIONS):
                    return "evaluates a comprehension eagerly"
        return None


# ----------------------------------------------------------------------
# RPR009 — wire-baseline freshness
# ----------------------------------------------------------------------

@register_rule
class WireBaselineFreshness(Rule):
    """``wire_baseline`` must mirror what the decoders actually read.

    RPR004 checks the *compat* direction (no hard read outside
    ``required``); this rule checks the *freshness* direction — the
    documented contract cannot silently trail the code. Per decoder
    (resolved through ``_DECODERS``): every ``doc.get("f", ...)`` read
    must be recorded in the baseline (new optional fields land with a
    ``.get``-side decode, and recording them is step two of the growth
    contract), and every baseline ``optional`` field must still be read
    somewhere in its decoder (a field nobody decodes is a stale table
    entry). Decoders with no by-name reads at all — the
    ``_strip`` → constructor style, where constructor defaults absorb
    old documents — are exempt from the staleness direction.
    """

    id = "RPR009"
    name = "wire-baseline-freshness"
    description = ("wire_baseline optional/required sets must match the "
                   "decoders' actual .get and hard reads")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.matches(ctx.config.wire_globs):
            return
        decoder_map, _ = WireCompat._decoder_map(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, _FUNCS) and node.name in decoder_map:
                yield from self._check_decoder(ctx, node,
                                               decoder_map[node.name])

    def _check_decoder(self, ctx: ModuleContext,
                       fn: ast.FunctionDef | ast.AsyncFunctionDef,
                       tag: str) -> Iterator[Finding]:
        entry = WIRE_BASELINE.get(tag)
        if entry is None:
            return  # RPR004 already reports the missing baseline entry
        doc = fn.args.args[0].arg if fn.args.args else None
        if doc is None:
            return
        hard, soft = self._reads(fn, doc)
        known = set(entry["required"]) | set(entry["optional"])
        for field in sorted(soft - known):
            yield self.finding(
                ctx, fn,
                f"decoder for {tag!r} reads {doc}.get({field!r}) but "
                "the baseline does not record that field; add it under "
                "optional in repro.analysis.wire_baseline (recording "
                "the field is step two of growing the format)")
        if hard or soft:
            for field in sorted(set(entry["optional"]) - soft - hard):
                yield self.finding(
                    ctx, fn,
                    f"baseline lists optional wire field {field!r} for "
                    f"{tag!r} but the decoder never reads it; the table "
                    "is stale — drop the entry or .get the field in "
                    f"{fn.name}()")

    @staticmethod
    def _reads(fn: ast.AST, doc: str) -> tuple[set[str], set[str]]:
        """Fields ``fn`` hard-reads (``doc["f"]`` / ``_expect``) and
        ``.get``-reads off the ``doc`` parameter, by string literal."""
        hard: set[str] = set()
        soft: set[str] = set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == doc
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                hard.add(node.slice.value)
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "_expect"
                        and node.args
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id == doc):
                    hard.update(a.value for a in node.args[1:]
                                if isinstance(a, ast.Constant)
                                and isinstance(a.value, str))
                elif (isinstance(func, ast.Attribute)
                        and func.attr == "get"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == doc
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    soft.add(node.args[0].value)
        return hard, soft


# ----------------------------------------------------------------------
# RPR010 — one factorization path per solver
# ----------------------------------------------------------------------

@register_rule
class OneFactorization(Rule):
    """Dense solves in kernel modules go through one stacked helper.

    numpy and scipy wheels each bundle their own LAPACK, and the two
    builds can disagree in the last ulp on small systems. Per-sample
    ``scipy.linalg.lu_factor``/``lu_solve`` next to stacked
    ``np.linalg.solve`` batches broke single-vs-batched bit identity
    under multithreaded BLAS (the 2D parity failures at 2n = 32). In
    ``kernel-globs`` modules (``greens/``, ``swm/``), flags every
    ``scipy.linalg`` or ``numpy.linalg`` solve or factorization outside
    a ``_factor_stack*`` helper: a single solve is a batch of one
    through that helper. It also flags every call of a
    ``_factor_stack*`` helper that is called from more than one place
    in its module: a second call site is a second solve path beside
    the solver's one kernel (single-sample and single-frequency copies
    of the assemble/factor loop once sat beside it, and every kernel
    change had to be made and tested twice).
    """

    id = "RPR010"
    name = "one-factorization"
    description = ("dense solves in kernel modules (greens/, swm/) must "
                   "go through the stacked _factor_stack* helper, "
                   "called from one place")

    _SOLVES = frozenset({"solve", "inv", "lstsq", "lu", "lu_factor",
                         "lu_solve", "cho_factor", "cho_solve",
                         "cholesky", "solve_triangular"})

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.matches(ctx.config.kernel_globs):
            return
        imports = _imports(ctx)
        helper_calls: dict[str, list[ast.Call]] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = (node.func.attr if isinstance(node.func, ast.Attribute)
                      else getattr(node.func, "id", ""))
            if callee.startswith("_factor_stack"):
                helper_calls.setdefault(callee, []).append(node)
            target = self._resolve(imports, node.func) or ""
            module, _, name = target.rpartition(".")
            if (module in ("scipy.linalg", "numpy.linalg")
                    and name in self._SOLVES
                    and not self._in_helper(ctx, node)):
                yield self.finding(
                    ctx, node,
                    f"{target} outside the _factor_stack* helper; numpy "
                    "and scipy LAPACK builds can round differently, so "
                    "every solve goes through that one call (a single "
                    "solve is a batch of one)")
        for callee, calls in helper_calls.items():
            if len(calls) < 2:
                continue
            for call in calls:
                yield self.finding(
                    ctx, call,
                    f"{callee}() has {len(calls)} call sites; keep one, "
                    "in the solver's one solve kernel (single and "
                    "one-frequency solves call the kernel with B = 1 / "
                    "F = 1)")

    @staticmethod
    def _resolve(imports: _Imports, func: ast.expr) -> str | None:
        """Dotted target of ``a.b.c(...)`` through the module's imports."""
        parts: list[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        root = imports.modules.get(func.id) or imports.names.get(func.id)
        if root is None:
            return None
        return ".".join([root, *reversed(parts)])

    @staticmethod
    def _in_helper(ctx: ModuleContext, node: ast.AST) -> bool:
        fn = ctx.enclosing_function(node)
        return fn is not None and fn.name.startswith("_factor_stack")
