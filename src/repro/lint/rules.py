"""The project's invariant rules (RPR001–RPR008).

Each rule encodes one of the contracts the runtime test matrices enforce
the expensive way, so violations surface at commit time instead of as
flaky nondeterminism, corrupted caches or torn result files at service
scale:

* RPR001 — determinism: randomness must flow through seeded
  ``np.random.Generator`` objects, never process-global RNG state.
* RPR002 — copy-on-write: transform paths must not mutate their input
  arrays in place (the prefix cache stores them read-only and shared
  memory will soon map them across processes).
* RPR003 — telemetry: a counter is an ``int`` attribute of its owner or
  a registry series, never a private dict of counts.
* RPR004 — no bare or silent broad excepts: a swallowed error is a wrong
  benchmark number nobody can explain.
* RPR005 — lock discipline: classes that own a ``_lock`` mutate shared
  ``self`` state only while holding it.
* RPR006 — atomic IO: write-mode ``open`` must route through
  ``atomic_write_text`` or an O_APPEND sink, so readers never see torn
  files.
* RPR007 — explicit text encodings: ``open()`` / ``read_text()`` /
  ``write_text()`` without ``encoding=`` depend on the host locale.
* RPR008 — bounded retries: retry/poll loops that sleep must be bounded
  by attempts or a deadline, and retry backoff routes through
  ``repro.engine.faults.RetryPolicy`` rather than ad-hoc ``time.sleep``.
"""

from __future__ import annotations

import ast

from repro.lint.core import FileContext, Rule, register_rule


# ------------------------------------------------------------------ helpers
def _dotted(node: ast.AST) -> list | None:
    """``a.b.c`` as ``["a", "b", "c"]`` when rooted at a plain name."""
    parts: list = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _keyword(call: ast.Call, name: str):
    for kw in call.keywords:
        if kw.arg == name:
            return kw
    return None


def _literal_str(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _open_mode(call: ast.Call, mode_position: int) -> str | None:
    """The literal mode string of an ``open``-style call.

    Returns ``"r"`` when no mode is given and ``None`` when the mode is a
    dynamic expression (which the rules conservatively skip).
    """
    kw = _keyword(call, "mode")
    if kw is not None:
        return _literal_str(kw.value)
    if len(call.args) > mode_position:
        return _literal_str(call.args[mode_position])
    return "r"


def _target_names(target: ast.AST):
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _subscript_base_name(node: ast.AST) -> str | None:
    """``x`` for targets like ``x[i]`` / ``x[i:j]`` / ``x[i][j]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)


def _scoped_walk(root: ast.AST):
    """Walk ``root``'s body without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ------------------------------------------------------------------- RPR001
@register_rule
class DeterminismRule(Rule):
    """Process-global RNG state breaks bit-for-bit reproducibility."""

    rule_id = "RPR001"
    title = "determinism: no global RNG state"
    rationale = (
        "results must be bit-for-bit reproducible across backends, drivers "
        "and resume; randomness is threaded as seeded np.random.Generator "
        "parameters (see repro.utils.random), never drawn from the "
        "process-global stdlib or numpy RNG"
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    #: numpy.random attributes that construct explicit generator objects
    #: (everything else on the module operates on hidden global state)
    _NP_CONSTRUCTORS = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "RandomState", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    })
    #: the constructors that are nondeterministic when called with no seed
    _SEEDED_CONSTRUCTORS = frozenset({"default_rng", "RandomState"})

    def start_file(self, ctx: FileContext) -> None:
        self._stdlib_modules: set = set()   # names bound to stdlib `random`
        self._stdlib_members: dict = {}     # local name -> `random` member
        self._numpy_modules: set = set()    # names bound to `numpy`
        self._np_random_modules: set = set()  # names bound to `numpy.random`
        self._np_random_members: dict = {}  # local name -> np.random member

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Import):
            self._visit_import(node)
        elif isinstance(node, ast.ImportFrom):
            self._visit_import_from(node)
        else:
            self._visit_call(node, ctx)

    def _visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if alias.name == "random":
                self._stdlib_modules.add(bound)
            elif alias.name == "numpy.random" and alias.asname:
                self._np_random_modules.add(alias.asname)
            elif alias.name.partition(".")[0] == "numpy":
                self._numpy_modules.add(bound)

    def _visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            for alias in node.names:
                self._stdlib_members[alias.asname or alias.name] = alias.name
        elif node.module == "numpy" and node.level == 0:
            for alias in node.names:
                if alias.name == "random":
                    self._np_random_modules.add(alias.asname or "random")
        elif node.module == "numpy.random" and node.level == 0:
            for alias in node.names:
                self._np_random_members[alias.asname or alias.name] = \
                    alias.name

    def _classify(self, func: ast.AST):
        """Resolve a call target to ``("stdlib"|"numpy", member)``."""
        if isinstance(func, ast.Name):
            if func.id in self._stdlib_members:
                return "stdlib", self._stdlib_members[func.id]
            if func.id in self._np_random_members:
                return "numpy", self._np_random_members[func.id]
            return None
        parts = _dotted(func)
        if parts is None:
            return None
        if len(parts) == 2 and parts[0] in self._stdlib_modules:
            return "stdlib", parts[1]
        if len(parts) == 2 and parts[0] in self._np_random_modules:
            return "numpy", parts[1]
        if len(parts) == 3 and parts[0] in self._numpy_modules \
                and parts[1] == "random":
            return "numpy", parts[2]
        return None

    def _visit_call(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = self._classify(node.func)
        if resolved is None:
            return
        origin, member = resolved
        argless = not node.args and not node.keywords
        if origin == "stdlib":
            if member == "Random":
                if argless:
                    ctx.report(self, node,
                               "random.Random() without a seed is "
                               "nondeterministic — pass a seed, or use "
                               "repro.utils.random.check_random_state")
            else:
                ctx.report(self, node,
                           f"random.{member}() draws from the process-"
                           "global stdlib RNG — thread a seeded "
                           "np.random.Generator instead (see "
                           "repro.utils.random)")
        else:
            if member in self._NP_CONSTRUCTORS:
                if member in self._SEEDED_CONSTRUCTORS and argless:
                    ctx.report(self, node,
                               f"np.random.{member}() without a seed is "
                               "nondeterministic — derive the generator "
                               "from the run's seed (check_random_state / "
                               "spawn_rng)")
            else:
                ctx.report(self, node,
                           f"np.random.{member}() uses numpy's hidden "
                           "global RNG state — use a seeded "
                           "np.random.Generator threaded as a parameter")


# ------------------------------------------------------------------- RPR002
@register_rule
class CowDisciplineRule(Rule):
    """Transform paths must not mutate their input arrays in place."""

    rule_id = "RPR002"
    title = "copy-on-write: no in-place mutation of transform inputs"
    rationale = (
        "the prefix cache hands transform paths *shared, read-only* "
        "arrays, and the shared-memory data plane will map one copy "
        "across processes; mutating a parameter in place either raises "
        "at runtime (writeable=False) or silently corrupts every later "
        "evaluation that shares the array"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)
    path_fragments = ("repro/preprocessing/", "repro/core/")

    #: ndarray methods that modify the array in place
    _MUTATORS = frozenset({
        "sort", "fill", "partition", "put", "itemset", "resize",
        "setfield", "byteswap",
    })

    def visit(self, node, ctx: FileContext) -> None:
        args = node.args
        params = {a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)}
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                params.add(vararg.arg)
        params -= {"self", "cls"}
        if not params:
            return
        body_nodes = list(_scoped_walk(node))
        rebound: set = set()
        for child in body_nodes:
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    rebound.update(_target_names(target))
            elif isinstance(child, (ast.AnnAssign, ast.NamedExpr)):
                rebound.update(_target_names(child.target))
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                rebound.update(_target_names(child.target))
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if item.optional_vars is not None:
                        rebound.update(_target_names(item.optional_vars))
        protected = params - rebound
        if not protected:
            return
        for child in body_nodes:
            self._check_node(child, protected, ctx)

    def _check_node(self, node, protected: set, ctx: FileContext) -> None:
        if isinstance(node, ast.AugAssign):
            name = (node.target.id if isinstance(node.target, ast.Name)
                    else _subscript_base_name(node.target))
            if name in protected:
                ctx.report(self, node,
                           f"augmented assignment mutates parameter "
                           f"{name!r} in place — operate on a copy "
                           "(COW discipline)")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                name = _subscript_base_name(target) \
                    if isinstance(target, ast.Subscript) else None
                if name in protected:
                    ctx.report(self, node,
                               f"subscript store mutates parameter "
                               f"{name!r} in place — operate on a copy "
                               "(COW discipline)")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in protected \
                    and func.attr in self._MUTATORS:
                ctx.report(self, node,
                           f"{func.value.id}.{func.attr}() mutates the "
                           "parameter in place — use the copying variant "
                           f"(e.g. np.{func.attr}) or work on a copy")
            out = _keyword(node, "out")
            if out is not None and isinstance(out.value, ast.Name) \
                    and out.value.id in protected:
                ctx.report(self, node,
                           f"out={out.value.id} writes the result into a "
                           "parameter in place — drop out= and bind the "
                           "return value")


# ------------------------------------------------------------------- RPR003
@register_rule
class PrivateCounterRule(Rule):
    """A counter is an int attribute or a registry series, not a dict."""

    rule_id = "RPR003"
    title = "telemetry: no private counter dicts"
    rationale = (
        "a counter that is an int attribute of its owner is read by name "
        "in cache_info() and heartbeats, and a process-wide one is a "
        "repro.telemetry.metrics registry series; a private dict of "
        "counts is a second, unreported way to count"
    )
    node_types = (ast.Assign, ast.AnnAssign)

    _FRAGMENTS = ("counter", "counters")

    @staticmethod
    def _is_dict_valued(node) -> bool:
        return isinstance(node, ast.Dict) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
        )

    def visit(self, node, ctx: FileContext) -> None:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            if node.value is None:
                return
            targets, value = [node.target], node.value
        if not self._is_dict_valued(value):
            return
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and any(fragment in target.attr.lower()
                            for fragment in self._FRAGMENTS)):
                ctx.report(self, node,
                           f"self.{target.attr} = {{...}} is an ad-hoc "
                           "counter store — give each counter an int "
                           "attribute (self.hits = 0) or use a "
                           "repro.telemetry.metrics.get_registry() series")


# ------------------------------------------------------------------- RPR004
@register_rule
class SilentExceptRule(Rule):
    """Bare excepts and silent broad excepts swallow real failures."""

    rule_id = "RPR004"
    title = "no bare or silent broad excepts"
    rationale = (
        "a swallowed exception in a search or IO path turns into a wrong "
        "benchmark number or a half-written cache nobody can explain; "
        "catch the narrow exception you expect, and make the handler do "
        "something observable"
    )
    node_types = (ast.ExceptHandler,)

    _BROAD = frozenset({"Exception", "BaseException"})

    @classmethod
    def _broad_names(cls, node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in cls._BROAD
        if isinstance(node, ast.Attribute):
            return node.attr in cls._BROAD
        if isinstance(node, ast.Tuple):
            return any(cls._broad_names(element) for element in node.elts)
        return False

    @staticmethod
    def _is_silent(body) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Constant) \
                    and stmt.value.value is Ellipsis:
                continue
            return False
        return True

    def visit(self, node: ast.ExceptHandler, ctx: FileContext) -> None:
        if node.type is None:
            ctx.report(self, node,
                       "bare `except:` catches everything including "
                       "KeyboardInterrupt/SystemExit — name the "
                       "exception(s) you expect")
        elif self._broad_names(node.type) and self._is_silent(node.body):
            ctx.report(self, node,
                       "silent broad except swallows every failure — "
                       "catch the specific exception, or handle/log/"
                       "re-raise in the body")


# ------------------------------------------------------------------- RPR005
@register_rule
class LockDisciplineRule(Rule):
    """Classes owning a ``_lock`` mutate shared state only under it."""

    rule_id = "RPR005"
    title = "lock discipline: shared state mutates under self._lock"
    rationale = (
        "the caches and registries shared by thread-backend workers "
        "serialize every mutation behind self._lock; a mutation outside "
        "`with self._lock` is a data race that only shows up as torn "
        "counters or corrupted LRU order under load"
    )
    node_types = (ast.ClassDef,)

    #: construction/teardown/unpickling happen before the object is shared
    _EXEMPT_METHODS = frozenset({
        "__init__", "__new__", "__del__", "__getstate__", "__setstate__",
        "__reduce__", "__copy__", "__deepcopy__", "__init_subclass__",
    })

    @staticmethod
    def _is_self_lock(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "_lock"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    def _owns_lock(self, methods) -> bool:
        for method in methods:
            for node in _scoped_walk(method):
                if isinstance(node, ast.Assign):
                    if any(self._is_self_lock(target)
                           for target in node.targets):
                        return True
                elif isinstance(node, ast.AnnAssign) \
                        and self._is_self_lock(node.target):
                    return True
        return False

    @classmethod
    def _self_attr_targets(cls, target):
        """Attribute names of ``self.attr`` / ``self.attr[...]`` targets."""
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            yield target.attr
        elif isinstance(target, ast.Subscript):
            yield from cls._self_attr_targets(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from cls._self_attr_targets(element)

    def visit(self, node: ast.ClassDef, ctx: FileContext) -> None:
        methods = [child for child in node.body
                   if isinstance(child, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
        if not self._owns_lock(methods):
            return
        for method in methods:
            if method.name in self._EXEMPT_METHODS:
                continue
            self._scan(method.body, False, method.name, ctx)

    def _scan(self, stmts, locked: bool, method: str,
              ctx: FileContext) -> None:
        for stmt in stmts:
            if isinstance(stmt, _SCOPE_NODES):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                now_locked = locked or any(
                    self._is_self_lock(item.context_expr)
                    for item in stmt.items
                )
                self._scan(stmt.body, now_locked, method, ctx)
                continue
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                    and not locked:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    for attr in self._self_attr_targets(target):
                        if attr == "_lock":
                            continue
                        ctx.report(self, stmt,
                                   f"{method}() mutates self.{attr} "
                                   "outside `with self._lock` in a "
                                   "lock-owning class — acquire the lock "
                                   "(or mark a deliberately unlocked "
                                   "path with a lint-ignore pragma)")
            for block in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, block, None)
                if nested:
                    self._scan(nested, locked, method, ctx)
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    self._scan(handler.body, locked, method, ctx)


# ------------------------------------------------------------------- RPR006
@register_rule
class AtomicWriteRule(Rule):
    """Write-mode opens must route through atomic_write_text / O_APPEND."""

    rule_id = "RPR006"
    title = "atomic IO: no raw write-mode open()"
    rationale = (
        "cache and result roots are read concurrently by other processes "
        "and survive crashes; a raw open(..., 'w') can leave a torn file "
        "that poisons every later load — atomic_write_text (temp file + "
        "os.replace) or an O_APPEND sink never does"
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node, mode_position=1)
            label = "open"
        elif isinstance(func, ast.Attribute):
            parts = _dotted(func)
            if parts and parts[0] == "os":
                return  # os.open takes flags; os.fdopen wraps a deliberate fd
            if func.attr == "open":
                mode = _open_mode(node, mode_position=0)
                label = ".open"
            elif func.attr == "write_text":
                mode = "w"
                label = ".write_text"
            else:
                return
        else:
            return
        if mode is None:
            return  # dynamic mode expression: cannot decide statically
        if any(flag in mode for flag in "wx+"):
            ctx.report(self, node,
                       f"non-atomic write ({label} mode {mode!r}) — route "
                       "through repro.io.serialization.atomic_write_text "
                       "or an O_APPEND sink so readers never see a torn "
                       "file")


# ------------------------------------------------------------------- RPR007
@register_rule
class ExplicitEncodingRule(Rule):
    """Text-mode file APIs must pass ``encoding=`` explicitly."""

    rule_id = "RPR007"
    title = "explicit text encodings"
    rationale = (
        "open()/read_text()/write_text() without encoding= use the host "
        "locale, so caches and results written on one machine can fail "
        "to parse on another; every text file the library touches is "
        "UTF-8 by contract"
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node, mode_position=1)
            label = "open"
        elif isinstance(func, ast.Attribute):
            parts = _dotted(func)
            if parts and parts[0] == "os":
                if func.attr != "fdopen":
                    return
                mode = _open_mode(node, mode_position=1)
                label = "os.fdopen"
            elif func.attr == "open":
                mode = _open_mode(node, mode_position=0)
                label = ".open"
            elif func.attr in ("read_text", "write_text"):
                # encoding is the first (read_text) / second (write_text)
                # positional parameter of these Path methods
                encoding_position = 0 if func.attr == "read_text" else 1
                if len(node.args) > encoding_position:
                    return
                mode = "r"
                label = f".{func.attr}"
            else:
                return
        else:
            return
        if mode is None or "b" in mode:
            return  # dynamic mode (skip) or binary mode (no encoding)
        if _keyword(node, "encoding") is None:
            ctx.report(self, node,
                       f"{label}() in text mode without encoding= depends "
                       "on the host locale — pass encoding=\"utf-8\"")


# ------------------------------------------------------------------- RPR008
@register_rule
class BoundedRetryRule(Rule):
    """Retry/poll loops must be bounded by attempts or a deadline."""

    rule_id = "RPR008"
    title = "bounded retries: no unbounded sleep loops"
    rationale = (
        "an unbounded retry loop turns one dead worker into a search that "
        "hangs forever with nothing to diagnose; library retry loops are "
        "bounded by attempts or a deadline, and backoff delays route "
        "through repro.engine.faults.RetryPolicy (seeded jitter, capped "
        "sleeps) instead of ad-hoc time.sleep"
    )
    node_types = (ast.Import, ast.ImportFrom, ast.While, ast.ExceptHandler)
    #: library code only: tests and benchmarks may poll at their leisure
    path_fragments = ("repro/",)

    def start_file(self, ctx: FileContext) -> None:
        self._sleep_names: set = set()   # names bound to time.sleep
        self._time_modules: set = set()  # names bound to the time module

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    self._time_modules.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and node.level == 0:
                for alias in node.names:
                    if alias.name == "sleep":
                        self._sleep_names.add(alias.asname or "sleep")
        elif isinstance(node, ast.While):
            self._visit_while(node, ctx)
        else:
            self._visit_handler(node, ctx)

    def _is_sleep_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in self._sleep_names
        parts = _dotted(func)
        return (parts is not None and len(parts) == 2
                and parts[0] in self._time_modules and parts[1] == "sleep")

    def _visit_while(self, node: ast.While, ctx: FileContext) -> None:
        # Only constant-true loops (`while True:` / `while 1:`): a real
        # condition is itself the bound.
        test = node.test
        if not (isinstance(test, ast.Constant) and test.value):
            return
        sleeps = False
        exits = False
        for child in _scoped_walk(node):
            if self._is_sleep_call(child):
                sleeps = True
            elif isinstance(child, (ast.Break, ast.Return, ast.Raise)):
                exits = True
        if sleeps and not exits:
            ctx.report(self, node,
                       "`while True` sleep loop with no break/return/raise "
                       "— bound it by attempts or a deadline (see "
                       "repro.engine.faults.RetryPolicy)")

    def _visit_handler(self, node: ast.ExceptHandler,
                       ctx: FileContext) -> None:
        for child in _scoped_walk(node):
            if self._is_sleep_call(child):
                ctx.report(self, child,
                           "ad-hoc retry backoff: time.sleep inside an "
                           "except handler — route the delay through "
                           "repro.engine.faults.RetryPolicy.sleep so it "
                           "stays bounded, capped and seeded")
