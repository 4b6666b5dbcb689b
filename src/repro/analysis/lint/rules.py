"""The invariant rules.

Each rule encodes one discipline this repo already documents and has
already been burned by:

* ``sqrt-parity`` — the PR 2/PR 4 bug class: ``x ** 0.5`` is ``pow``,
  which is not correctly rounded, while ``math.sqrt``/``numpy.sqrt``
  are — a scalar path using ``** 0.5`` can diverge from its batched
  kernel by an ulp and break the bit-equality pins.
* ``ledger-sum`` — numpy reductions are pairwise-summed; the ledger
  convention (``offered == stored + clipped + switching_loss`` at exact
  equality) requires the sequential add order the scalar engine uses, so
  float reductions in the bit-equality-critical modules must be spelled
  as sequential adds (or justified).
* ``additive-time`` — SegmentPlan invariant 5: simulated time advances
  ``time += dt`` per committed step, never ``start + k * dt``, so
  time-keyed behaviour (trace indexing, poll schedules) sees identical
  timestamps on every path.
* ``picklable-settings`` — ``RunSpec``/``ExperimentSettings`` cross
  process and cache boundaries; lambdas and local defs pickle on no
  backend and fingerprint in no store (today only caught at runtime by
  ``store.callable_identity``).
* ``exception-discipline`` — in ``store.py``, "a corrupt entry is a
  miss" is a contract that must *log*: a blanket handler that swallows
  silently turns fault tolerance into fault invisibility.
* ``kernel-conformance`` — every lockstep kernel registered in
  ``KERNEL_BUILDERS`` must provide the ``LockstepKernel`` segment-replay
  entry points (``fast_forward``/``fast_forward_on``), directly or by
  inheritance, or batch fast-forwarding dies at runtime mid-sweep.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.core import Finding, Project, Rule, SourceFile


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_half(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0.5


class SqrtParityRule(Rule):
    id = "sqrt-parity"
    description = (
        "use math.sqrt, not ** 0.5 / pow(x, 0.5): pow is not correctly "
        "rounded, so scalar paths drift from their numpy-batched kernels"
    )
    scope = ("repro/**",)

    def check(self, source: SourceFile) -> List[Finding]:
        findings = []
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Pow)
                and _is_half(node.right)
            ):
                findings.append(
                    self.finding(
                        source,
                        node,
                        "square root spelled '** 0.5'; use math.sqrt (or "
                        "numpy.sqrt) so scalar and batched paths round "
                        "identically",
                    )
                )
            elif (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) in ("pow", "power")
                and len(node.args) >= 2
                and _is_half(node.args[1])
            ):
                findings.append(
                    self.finding(
                        source,
                        node,
                        "square root spelled 'pow(x, 0.5)'; use math.sqrt "
                        "(or numpy.sqrt) so scalar and batched paths round "
                        "identically",
                    )
                )
        return findings


class LedgerSumRule(Rule):
    id = "ledger-sum"
    description = (
        "no float sum()/np.sum in bit-equality-critical modules: numpy "
        "reduces pairwise, the ledger convention needs sequential adds"
    )
    scope = (
        "repro/buffers/*.py",
        "repro/core/*.py",
        "repro/sim/batch.py",
        "repro/sim/segments.py",
        "repro/sim/metrics.py",
    )

    def check(self, source: SourceFile) -> List[Finding]:
        # A reduction immediately wrapped in int() is integer-valued
        # counting (lane masks), not a float ledger.
        int_wrapped: Set[ast.AST] = set()
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "int"
                and len(node.args) == 1
            ):
                int_wrapped.add(node.args[0])

        findings = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _terminal_name(node.func)
            if name != "sum" or node in int_wrapped:
                continue
            if isinstance(node.func, ast.Attribute):
                # ``(mask > 0).sum()`` / ``mask.sum()`` over comparisons is
                # boolean counting; everything else is a reduction.
                if isinstance(node.func.value, ast.Compare):
                    continue
                spelled = f"{_terminal_name(node.func.value) or '...'}.sum()"
            else:
                spelled = "sum()"
            findings.append(
                self.finding(
                    source,
                    node,
                    f"float reduction via {spelled} in a bit-equality-critical "
                    "module; accumulate sequentially (total += x) so the add "
                    "order matches the step-by-step oracle, or justify with a "
                    "pragma",
                )
            )
        return findings


#: Names that carry simulated time.  Wall-clock and bookkeeping names are
#: excluded: only *simulated* time is under the additive contract.
_TIME_NAMES = ("time", "times")
_TIME_EXCLUDE_PREFIXES = ("wall", "elapsed", "perf", "record")
_DT_NAMES = ("dt", "dt_on", "dt_off", "step_dt", "masked_dt")


def _is_time_target(node: ast.AST) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    lowered = name.lstrip("_").lower()
    if any(lowered.startswith(prefix) for prefix in _TIME_EXCLUDE_PREFIXES):
        return False
    return lowered in _TIME_NAMES or lowered.endswith(("_time", "_times"))


def _has_dt_product(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult):
            for operand in (sub.left, sub.right):
                name = _terminal_name(operand)
                if name is not None and name.lstrip("_") in _DT_NAMES:
                    return True
    return False


class AdditiveTimeRule(Rule):
    id = "additive-time"
    description = (
        "simulated time advances 'time += dt' per committed step "
        "(SegmentPlan invariant 5), never reconstructed as start + k * dt"
    )
    scope = ("repro/sim/*.py", "repro/buffers/*.py")

    def check(self, source: SourceFile) -> List[Finding]:
        findings = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assign):
                targets: Sequence[ast.AST] = node.targets
                value = node.value
            elif isinstance(node, ast.AugAssign):
                targets = (node.target,)
                value = node.value
            else:
                continue
            if not any(_is_time_target(target) for target in targets):
                continue
            if _has_dt_product(value):
                findings.append(
                    self.finding(
                        source,
                        node,
                        "simulated time reconstructed from a k * dt product; "
                        "the SegmentPlan contract mandates additive "
                        "accumulation (time += dt per committed step) so "
                        "time-keyed behaviour is bit-identical across engines",
                    )
                )
        return findings


#: Call targets whose arguments must stay picklable/fingerprintable.
_SETTINGS_CONSTRUCTORS = ("ExperimentSettings", "RunSpec")


class PicklableSettingsRule(Rule):
    id = "picklable-settings"
    description = (
        "no lambdas, nested functions, or local classes in RunSpec/"
        "ExperimentSettings construction (or buffer_factory=): they "
        "neither pickle across backends nor fingerprint in the store"
    )
    scope = ("repro/**",)

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        # local_defs[i] = names defined by defs/classes nested inside the
        # i-th enclosing function on the stack.
        stack: List[ast.AST] = []
        local_defs: List[Set[str]] = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stack:
                    local_defs[-1].add(node.name)
                stack.append(node)
                local_defs.append(set())
                for child in ast.iter_child_nodes(node):
                    visit(child)
                stack.pop()
                local_defs.pop()
                return
            if isinstance(node, ast.ClassDef) and stack:
                local_defs[-1].add(node.name)
            if isinstance(node, ast.Call):
                self._check_call(source, node, local_defs, findings)
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(source.tree)
        return findings

    def _check_call(
        self,
        source: SourceFile,
        call: ast.Call,
        local_defs: List[Set[str]],
        findings: List[Finding],
    ) -> None:
        is_constructor = _terminal_name(call.func) in _SETTINGS_CONSTRUCTORS
        locals_in_scope: Set[str] = set().union(*local_defs) if local_defs else set()
        for keyword in call.keywords:
            if keyword.arg == "buffer_factory" and not is_constructor:
                # buffer_factory rides RunSpecs wherever it is passed.
                self._check_value(
                    source, keyword.value, locals_in_scope, findings, "buffer_factory"
                )
        if not is_constructor:
            return
        label = _terminal_name(call.func) or "settings"
        for value in list(call.args) + [kw.value for kw in call.keywords]:
            self._check_value(source, value, locals_in_scope, findings, label)

    def _check_value(
        self,
        source: SourceFile,
        value: ast.AST,
        locals_in_scope: Set[str],
        findings: List[Finding],
        label: str,
    ) -> None:
        for node in ast.walk(value):
            if isinstance(node, ast.Lambda):
                findings.append(
                    self.finding(
                        source,
                        node,
                        f"lambda passed into {label}: it cannot pickle across "
                        "pool backends and has no stable store fingerprint; "
                        "use a module-level callable",
                    )
                )
            elif isinstance(node, ast.Name) and node.id in locals_in_scope:
                findings.append(
                    self.finding(
                        source,
                        node,
                        f"locally-defined callable {node.id!r} passed into "
                        f"{label}: nested functions and local classes cannot "
                        "pickle across backends; move it to module level",
                    )
                )


_BLANKET_EXCEPTIONS = ("Exception", "BaseException")
_LOG_METHODS = (
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "exception",
    "critical",
    "log",
)


def _is_blanket(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(_terminal_name(node) in _BLANKET_EXCEPTIONS for node in nodes)


def _handler_is_loud(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _LOG_METHODS:
                base = _terminal_name(node.func.value) or ""
                if "log" in base.lower() or base == "warnings":
                    return True
    return False


class ExceptionDisciplineRule(Rule):
    id = "exception-discipline"
    description = (
        "no silently-swallowed bare/blanket except in store.py: "
        "'corrupt entry is a miss' must log"
    )
    scope = ("repro/experiments/store.py",)

    def check(self, source: SourceFile) -> List[Finding]:
        findings = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    self.finding(
                        source,
                        node,
                        "bare 'except:' swallows everything including "
                        "KeyboardInterrupt; name the exceptions (and log "
                        "what was tolerated)",
                    )
                )
            elif _is_blanket(node) and not _handler_is_loud(node):
                findings.append(
                    self.finding(
                        source,
                        node,
                        "blanket 'except Exception' that neither logs nor "
                        "re-raises: a tolerated fault here (corrupt cache "
                        "entry, lost worker) must leave a log trail",
                    )
                )
        return findings


class KernelConformanceRule(Rule):
    id = "kernel-conformance"
    description = (
        "every kernel registered in KERNEL_BUILDERS must implement or "
        "inherit the LockstepKernel entry points fast_forward/fast_forward_on"
    )
    scope = ()  # whole-project rule: runs in finalize only
    required_methods = ("fast_forward", "fast_forward_on")

    def finalize(self, project: Project) -> List[Finding]:
        batch_files = project.match("repro/sim/batch.py") or project.match(
            "*/sim/batch.py"
        )
        if not batch_files:
            return []
        registered = self._registered_kernels(batch_files[0])
        if not registered:
            return []
        classes = self._class_index(project)
        findings = []
        for kernel_name in registered:
            if kernel_name not in classes:
                continue  # out-of-tree kernel: nothing to check statically
            missing = [
                method
                for method in self.required_methods
                if not self._resolves(kernel_name, method, classes)
            ]
            if missing:
                source, node = classes[kernel_name]
                findings.append(
                    self.finding(
                        source,
                        node,
                        f"kernel {kernel_name!r} is registered in "
                        f"KERNEL_BUILDERS but neither defines nor inherits "
                        f"{', '.join(missing)}; batch fast-forwarding would "
                        "die mid-sweep",
                    )
                )
        return findings

    @staticmethod
    def _registered_kernels(source: SourceFile) -> List[str]:
        """Class names referenced by the ``KERNEL_BUILDERS = (...)`` tuple."""
        names: List[str] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "KERNEL_BUILDERS"
                for t in node.targets
            ):
                continue
            elements = (
                node.value.elts
                if isinstance(node.value, (ast.Tuple, ast.List))
                else []
            )
            for element in elements:
                # StaticBatchKernel.build -> StaticBatchKernel
                if isinstance(element, ast.Attribute):
                    name = _terminal_name(element.value)
                else:
                    name = _terminal_name(element)
                if name:
                    names.append(name)
        return names

    @staticmethod
    def _class_index(
        project: Project,
    ) -> Dict[str, Tuple[SourceFile, ast.ClassDef]]:
        index: Dict[str, Tuple[SourceFile, ast.ClassDef]] = {}
        for source in project.files.values():
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    index.setdefault(node.name, (source, node))
        return index

    def _resolves(
        self,
        class_name: str,
        method: str,
        classes: Dict[str, Tuple[SourceFile, ast.ClassDef]],
        seen: Optional[Set[str]] = None,
    ) -> bool:
        seen = seen or set()
        if class_name in seen or class_name not in classes:
            return False
        seen.add(class_name)
        _, node = classes[class_name]
        for statement in node.body:
            if (
                isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                and statement.name == method
            ):
                return True
        return any(
            self._resolves(base_name, method, classes, seen)
            for base in node.bases
            if (base_name := _terminal_name(base)) is not None
        )


#: Every rule, in report order.
ALL_RULES: Tuple[Rule, ...] = (
    SqrtParityRule(),
    LedgerSumRule(),
    AdditiveTimeRule(),
    PicklableSettingsRule(),
    ExceptionDisciplineRule(),
    KernelConformanceRule(),
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(
        f"unknown rule {rule_id!r}; known rules: "
        + ", ".join(rule.id for rule in ALL_RULES)
    )
