"""Machine-readable run reports: one self-describing record per line.

Records carry the claim they verify as a formula string, the measured
residual, the tolerance and the verdict, so a failing line is traceable
to the mathematical statement it checks.  Serialization is byte-stable
for a fixed configuration: fixed field order, fixed float formatting,
no timestamps.
"""

import hashlib
from dataclasses import dataclass, field


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return '"' + x.replace('"', "'") + '"'
    return f"{float(x):.17e}"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    claim: str
    residual: float = None
    tol: float = None
    passed: bool = True
    note: str = None

    def line(self) -> str:
        parts = [
            "record",
            f"name={self.name}",
            f"claim={_fmt(self.claim)}",
            f"residual={_fmt(self.residual)}",
            f"tol={_fmt(self.tol)}",
            f"pass={_fmt(self.passed)}",
        ]
        if self.note is not None:
            parts.append(f"note={_fmt(self.note)}")
        return " ".join(parts)


@dataclass
class RunReport:
    command: str
    environment: dict
    records: list = field(default_factory=list)

    def add(self, name, claim, residual=None, tol=None, passed=None, note=None):
        if passed is None:
            passed = residual is None or tol is None or residual <= tol
        self.records.append(
            CheckRecord(
                name=name, claim=claim, residual=residual, tol=tol,
                passed=bool(passed), note=note,
            )
        )

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def render(self) -> str:
        lines = [f"# dsrigidity report v1 command={self.command}"]
        for key in sorted(self.environment):
            lines.append(f"meta {key}={_fmt(self.environment[key])}")
        lines.extend(r.line() for r in self.records)
        failed = sum(not r.passed for r in self.records)
        lines.append(
            f"verdict pass={_fmt(self.overall_pass)} "
            f"checks={len(self.records)} failed={failed}"
        )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = []
        for r in self.records:
            mark = "PASS" if r.passed else "FAIL"
            res = f" residual={r.residual:.3e}" if r.residual is not None else ""
            tol = f" tol={r.tol:g}" if r.tol is not None else ""
            lines.append(f"[{mark}] {r.name}{res}{tol}")
        lines.append(
            f"overall: {'PASS' if self.overall_pass else 'FAIL'} "
            f"({len(self.records)} checks)"
        )
        return "\n".join(lines)


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
