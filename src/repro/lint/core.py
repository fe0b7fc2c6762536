"""The lint framework: findings, rules, suppressions, profiles, the runner.

``repro lint`` is a *contract* checker, not a style checker.  The
reproduction's headline guarantees — bit-for-bit determinism across
backends and resume, read-only copy-on-write prefix-cache arrays,
torn-line-tolerant atomic IO, centralized telemetry counters — are all
*conventions*: nothing in Python stops a new module from calling
``np.random.seed``, mutating a cached array in place, or writing a result
file non-atomically.  The runtime test matrices catch such regressions
eventually, but as flaky nondeterminism at service scale.  This package
catches them at commit time, from the AST.

Design:

* each file is parsed **once**; every active rule receives the nodes it
  registered for (``Rule.node_types``) in document order, so a sweep over
  the whole tree costs one parse + one walk per file regardless of how
  many rules run;
* rules are registered by class (``@register_rule``) under stable
  ``RPRxxx`` identifiers, so callers (tests, CI, the CLI ``--rules``
  filter) can select them individually;
* inline suppressions — ``# repro: lint-ignore[RPR001]`` on the offending
  line (or alone on the line above), ``# repro: lint-ignore-file[RPR006]``
  anywhere for the whole file — let intentional violations stay, visibly,
  with their justification next to them;
* per-path :class:`RuleProfile` entries relax rule sets for trees with
  different contracts (tests may mutate arrays and write files freely;
  the telemetry package is *allowed* to implement counter storage; the
  lint test fixtures are intentionally violating and are skipped).

A file that fails to parse yields a single ``RPR000`` finding rather than
crashing the sweep: a syntax error in the tree is itself a violation.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.exceptions import ValidationError

#: the pseudo-rule reported when a file cannot be parsed at all
PARSE_ERROR_RULE = "RPR000"

#: inline pragma grammar; the optional ``-file`` suffix widens the scope
#: to the whole file, the optional bracket list narrows it to named rules
#: (no list = every rule).  Text after the bracket is the justification.
_PRAGMA = re.compile(
    r"#\s*repro:\s*lint-ignore(?P<whole_file>-file)?"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form (the ``--json`` reporter's element schema)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


class FileContext:
    """Everything a rule may consult about the file under analysis.

    Also the findings sink: rules call :meth:`report`, which applies the
    file's inline suppressions before recording anything.
    """

    def __init__(self, path: Path, source: str, tree: ast.AST,
                 display_path: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.findings: list[LintFinding] = []
        self._line_ignores: dict[int, frozenset | None] = {}
        self._file_ignores: frozenset | None = frozenset()
        self._scan_pragmas()

    # ------------------------------------------------------------ pragmas
    def _scan_pragmas(self) -> None:
        file_wide: set | None = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _PRAGMA.search(text)
            if match is None:
                continue
            rules = match.group("rules")
            scope = (frozenset(part.strip() for part in rules.split(",")
                               if part.strip())
                     if rules else None)  # None = every rule
            if match.group("whole_file"):
                if scope is None or file_wide is None:
                    file_wide = None
                else:
                    file_wide |= scope
                continue
            code_before = text[: match.start()].strip()
            # A standalone pragma line shields the line below it; a
            # trailing pragma shields its own line.
            target = lineno + 1 if not code_before else lineno
            existing = self._line_ignores.get(target, frozenset())
            if scope is None or existing is None:
                self._line_ignores[target] = None
            else:
                self._line_ignores[target] = frozenset(existing) | scope
        self._file_ignores = (None if file_wide is None
                              else frozenset(file_wide))

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if self._file_ignores is None or rule_id in self._file_ignores:
            return True
        scope = self._line_ignores.get(line, frozenset())
        return scope is None or rule_id in scope

    # ------------------------------------------------------------ helpers
    def matches(self, fragments: Iterable[str]) -> bool:
        """Whether this file's path contains any of ``fragments``."""
        posix = self.path.as_posix()
        return any(fragment in posix for fragment in fragments)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        """Record a finding at ``node`` unless a pragma suppresses it."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.is_suppressed(rule.rule_id, line):
            return
        self.findings.append(LintFinding(
            rule=rule.rule_id, path=self.display_path, line=line, col=col,
            message=message, snippet=self.snippet(line),
        ))


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`rule_id` / :attr:`title` / :attr:`rationale`,
    declare the AST node classes they want in :attr:`node_types`, and
    implement :meth:`visit`.  Per-file state goes in :meth:`start_file`
    (a fresh rule instance is *not* created per file).  A rule that only
    applies to part of the tree narrows itself with
    :attr:`path_fragments`.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    node_types: tuple = ()
    #: posix path fragments the rule is limited to (``None`` = every file)
    path_fragments: tuple | None = None

    def start_file(self, ctx: FileContext) -> None:
        """Reset per-file state before the walk."""

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        """Inspect one node of a type listed in :attr:`node_types`."""

    def finish_file(self, ctx: FileContext) -> None:
        """Hook after the walk (for rules that accumulate)."""


#: registry of rule classes by id, populated via :func:`register_rule`
_RULE_CLASSES: dict[str, type] = {}


def register_rule(cls):
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if not cls.rule_id:
        raise ValidationError(f"{cls.__name__} declares no rule_id")
    if cls.rule_id in _RULE_CLASSES:
        raise ValidationError(f"duplicate lint rule id {cls.rule_id!r}")
    _RULE_CLASSES[cls.rule_id] = cls
    return cls


def all_rule_ids() -> tuple:
    """Every registered rule id, sorted."""
    return tuple(sorted(_RULE_CLASSES))


def rule_class(rule_id: str):
    """The registered class for ``rule_id`` (raises on unknown ids)."""
    try:
        return _RULE_CLASSES[rule_id]
    except KeyError:
        raise ValidationError(
            f"unknown lint rule {rule_id!r}; known rules: "
            + ", ".join(all_rule_ids())
        ) from None


def make_rules(rule_ids: Sequence | None = None) -> list:
    """Instantiate the requested rules (default: every registered rule).

    Accepts rule ids or ready-made instances interchangeably, so callers
    holding instances can pass them straight back through the runners.
    """
    if rule_ids is None:
        rule_ids = all_rule_ids()
    return [rule if isinstance(rule, Rule) else rule_class(rule)()
            for rule in rule_ids]


# ------------------------------------------------------------------ profiles
@dataclass(frozen=True)
class RuleProfile:
    """Per-path rule adjustments, matched by posix path fragment."""

    name: str
    fragment: str
    disable: frozenset = frozenset()
    skip: bool = False  # skip matched files entirely (e.g. bad fixtures)

    def matches(self, path: Path) -> bool:
        return self.fragment in path.as_posix()


#: the repository's shipped profile set.  Order is irrelevant: matching
#: profiles compose (disabled sets union; any ``skip`` wins).
DEFAULT_PROFILES: tuple = (
    # The lint test fixtures violate the rules on purpose.
    RuleProfile("lint-fixtures", "tests/lint/fixtures/", skip=True),
    # The telemetry package is the one place allowed to *implement*
    # counter storage: its registry (RPR003 sends everyone else to int
    # attributes or to that registry).
    RuleProfile("telemetry", "repro/telemetry/",
                disable=frozenset({"RPR003"})),
    # Tests, benchmarks and examples run outside the library's COW,
    # lock-discipline and atomic-write contracts: they may mutate arrays
    # they own, hold no shared caches, and write scratch files freely.
    # Determinism (RPR001), silent excepts (RPR004) and explicit
    # encodings (RPR007) still apply — flaky tests are still flaky.
    RuleProfile("tests-relaxed", "tests/",
                disable=frozenset({"RPR002", "RPR005", "RPR006"})),
    RuleProfile("benchmarks-relaxed", "benchmarks/",
                disable=frozenset({"RPR002", "RPR005", "RPR006"})),
    RuleProfile("examples-relaxed", "examples/",
                disable=frozenset({"RPR002", "RPR005", "RPR006"})),
)


def _profile_decision(path: Path, profiles: Iterable[RuleProfile]):
    """Compose every matching profile into ``(skip, disabled_rule_ids)``."""
    skip = False
    disabled: set = set()
    for profile in profiles:
        if profile.matches(path):
            skip = skip or profile.skip
            disabled |= set(profile.disable)
    return skip, disabled


# -------------------------------------------------------------------- runner
@dataclass
class LintReport:
    """The outcome of one lint sweep."""

    findings: list = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict:
        """Findings per rule id, sorted by id."""
        tally: dict = {}
        for finding in self.findings:
            tally[finding.rule] = tally.get(finding.rule, 0) + 1
        return dict(sorted(tally.items()))

    def to_dict(self) -> dict:
        """The ``--json`` reporter schema (stable; version-stamped)."""
        from repro.lint.reporting import JSON_SCHEMA_VERSION

        return {
            "version": JSON_SCHEMA_VERSION,
            "tool": "repro-lint",
            "files_checked": self.files_checked,
            "clean": self.clean,
            "counts": self.counts(),
            "findings": [finding.to_dict()
                         for finding in sorted(self.findings,
                                               key=LintFinding.sort_key)],
        }


def _walk_document_order(tree: ast.AST):
    """Depth-first pre-order walk, children in source order.

    Unlike :func:`ast.walk` (breadth-first), this guarantees that a
    module's imports are seen before any later call that uses them, which
    the determinism rule relies on to resolve module aliases.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def lint_source(source: str, *, path="<string>", rules=None,
                profiles: Iterable[RuleProfile] = DEFAULT_PROFILES,
                ) -> list:
    """Lint one source string; the unit the per-file sweep is built on."""
    rules = make_rules(rules)
    path = Path(path)
    display = path.as_posix()
    skip, disabled = _profile_decision(path, profiles)
    if skip:
        return []
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as error:
        return [LintFinding(
            rule=PARSE_ERROR_RULE, path=display,
            line=error.lineno or 1, col=error.offset or 0,
            message=f"file does not parse: {error.msg}",
        )]
    ctx = FileContext(path, source, tree, display)
    active = []
    dispatch: dict = {}
    for rule in rules:
        if rule.rule_id in disabled:
            continue
        if rule.path_fragments is not None \
                and not ctx.matches(rule.path_fragments):
            continue
        active.append(rule)
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    for rule in active:
        rule.start_file(ctx)
    for node in _walk_document_order(tree):
        for rule in dispatch.get(type(node), ()):
            rule.visit(node, ctx)
    for rule in active:
        rule.finish_file(ctx)
    return ctx.findings


def lint_file(path, *, rules=None,
              profiles: Iterable[RuleProfile] = DEFAULT_PROFILES) -> list:
    """Lint one ``.py`` file and return its findings."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, path=path, rules=rules, profiles=profiles)


def iter_python_files(paths: Iterable) -> list:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: set = set()
    ordered: list = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            candidates = [root]
        else:
            raise ValidationError(
                f"lint target {root} is neither a directory nor a .py file"
            )
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                ordered.append(candidate)
    return ordered


def lint_paths(paths: Iterable, *, rules=None,
               profiles: Iterable[RuleProfile] = DEFAULT_PROFILES,
               ) -> LintReport:
    """Lint every ``.py`` file under ``paths``; the CLI's workhorse.

    Rules are instantiated once and reused across files (their
    ``start_file`` hook resets per-file state), so the sweep stays one
    parse + one walk per file.
    """
    rule_objects = make_rules(rules)
    report = LintReport()
    for path in iter_python_files(paths):
        skip, _ = _profile_decision(path, profiles)
        if skip:
            continue
        report.files_checked += 1
        report.findings.extend(
            lint_file(path, rules=rule_objects, profiles=profiles)
        )
    report.findings.sort(key=LintFinding.sort_key)
    return report
