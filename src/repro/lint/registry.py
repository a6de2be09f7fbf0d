"""The rule registry: stable codes, default severities, suppression.

Every shipped rule is declared here, in one place, so the catalog in
``docs/lint.md`` and the ``repro lint`` CLI stay in sync with the
analyzers.  Codes are stable across releases (``JCD0xx`` -- JavaCAD
Design); retired codes are never reused.

Suppression works at two levels:

* per run -- pass ``suppress={"JCD002", ...}`` to the library API or
  ``--suppress JCD002`` to the CLI;
* per source line (static code analyzers only) -- a trailing
  ``# lint: allow(JCD010)`` comment on the offending line or on the
  enclosing ``def`` line silences the code there, keeping the waiver
  next to the code it excuses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from .findings import Finding, Severity


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    """Stable identifier, e.g. ``JCD001``."""

    name: str
    """Short kebab-case name, e.g. ``unconnected-input-port``."""

    severity: Severity
    """Default severity of the rule's findings."""

    description: str
    """One-line description for the rule catalog."""


_RULES: Dict[str, Rule] = {}

_CODE_RE = re.compile(r"^JCD\d{3}$")


def register_rule(code: str, name: str, severity: Severity,
                  description: str) -> Rule:
    """Register a rule under a stable ``JCD0xx`` code."""
    if not _CODE_RE.match(code):
        raise ValueError(f"rule code {code!r} does not match JCDnnn")
    if code in _RULES:
        raise ValueError(f"rule code {code} is already registered "
                         f"({_RULES[code].name})")
    registered = Rule(code, name, severity, description)
    _RULES[code] = registered
    return registered


def rule(code: str) -> Rule:
    """Look a rule up by code."""
    try:
        return _RULES[code]
    except KeyError:
        raise ValueError(f"unknown rule code {code!r}") from None


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    return tuple(_RULES[code] for code in sorted(_RULES))


def finding(code: str, message: str, target: str,
            line: "int | None" = None,
            severity: "Severity | None" = None) -> Finding:
    """Build a :class:`Finding` for a registered rule.

    ``severity`` overrides the rule default (rules may downgrade a
    borderline case to a warning without registering a second code).
    """
    declared = rule(code)
    return Finding(code, severity or declared.severity, message, target,
                   line)


def check_codes(codes: Iterable[str]) -> Set[str]:
    """Validate a suppression set; raises on unknown codes."""
    wanted = set(codes)
    for code in wanted:
        rule(code)  # raises ValueError on unknown codes
    return wanted


def filter_suppressed(findings: Iterable[Finding],
                      suppress: Iterable[str] = ()
                      ) -> Tuple[List[Finding], int]:
    """Drop findings whose code is suppressed; returns (kept, dropped)."""
    codes = check_codes(suppress)
    kept: List[Finding] = []
    dropped = 0
    for item in findings:
        if item.code in codes:
            dropped += 1
        else:
            kept.append(item)
    return kept, dropped


# ---------------------------------------------------------------------------
# The shipped rule catalog (docs/lint.md mirrors this table).
# ---------------------------------------------------------------------------

# -- design lint (walks Design / Circuit / Netlist structures) -------------
register_rule(
    "JCD001", "unconnected-input-port", Severity.ERROR,
    "An input port is not attached to any connector; it would read X "
    "forever during simulation.")
register_rule(
    "JCD002", "dangling-connector", Severity.WARNING,
    "A connector has fewer than two endpoints inside the circuit; "
    "values set on it go nowhere.")
register_rule(
    "JCD003", "connector-drivers", Severity.ERROR,
    "A connector has more than two endpoints, more than one pure "
    "output driving it, or no endpoint that can drive it at all.")
register_rule(
    "JCD004", "width-mismatch", Severity.ERROR,
    "A port's width differs from its connector's width; values would "
    "be rejected at simulation time.")
register_rule(
    "JCD005", "silent-module", Severity.WARNING,
    "A module has readable ports but overrides none of the event "
    "handling hooks; every token sent to it is silently dropped.")
register_rule(
    "JCD006", "combinational-loop", Severity.ERROR,
    "A netlist contains a combinational cycle; the offending net/gate "
    "path is reported in order.")
register_rule(
    "JCD007", "undriven-net", Severity.ERROR,
    "A gate input or primary output reads a net that no gate or "
    "primary input drives.")
register_rule(
    "JCD008", "unknown-fault-site", Severity.ERROR,
    "A fault list references a net, gate or pin that does not exist "
    "in the netlist it targets.")
register_rule(
    "JCD009", "uncovered-parameter", Severity.WARNING,
    "An estimation setup requests a parameter that no module in the "
    "circuit has a candidate estimator for; only null estimates would "
    "be produced.")

# -- static code analysis (Python ast over servant classes) ----------------
register_rule(
    "JCD010", "impure-pure-method", Severity.ERROR,
    "A method declared pure (cacheable) writes servant state: caching "
    "its replies would silently serve stale data.")
register_rule(
    "JCD011", "unmarshallable-return", Severity.ERROR,
    "A remote method's return annotation names a type the restricted "
    "RMI marshaller rejects; the call would fail at the wire.")
register_rule(
    "JCD012", "privacy-leak", Severity.ERROR,
    "A servant method returns netlist/design internals instead of "
    "port-local values, defeating the paper's IP protection.")
register_rule(
    "JCD013", "undeclared-pure-method", Severity.WARNING,
    "A PURE_METHODS entry names a method the servant does not define, "
    "or one missing from REMOTE_METHODS; the whitelist is stale.")

# -- concurrency analysis (call graph over the full source sweep) ----------
register_rule(
    "JCD014", "undeclared-global-counter", Severity.ERROR,
    "A module-level id counter outside repro.core.ids is consumed on "
    "server dispatch paths; concurrent tenants would share its "
    "sequence.")
register_rule(
    "JCD015", "blocking-call-in-async", Severity.ERROR,
    "An async def in repro.server makes a blocking call (time.sleep, "
    "file/socket I/O, Future.result, lock .acquire); every tenant on "
    "the event loop stalls behind it.")
register_rule(
    "JCD016", "fork-unsafe-state", Severity.WARNING,
    "Threads, executors or locks are created before ProcessDispatcher "
    "forks its workers (or started in a worker initializer); forked "
    "children inherit them in undefined states.")
register_rule(
    "JCD017", "unguarded-shared-mutation", Severity.WARNING,
    "Dispatch-reachable code mutates module- or class-level mutable "
    "state outside any owning lock or gate; concurrent tenants race "
    "on it.")
register_rule(
    "JCD018", "nondeterministic-marshal", Severity.ERROR,
    "A servant method feeds nondeterminism (set iteration, id(), "
    "wall clocks, unseeded random, os.urandom) toward marshalled "
    "bytes, breaking byte-identity across runs.")
