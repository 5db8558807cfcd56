"""Uniform result object for the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    """Outcome of a verification run: named checks, each passed or failed."""

    name: str
    checks: list[tuple[str, bool]] = field(default_factory=list)
    details: dict[str, object] = field(default_factory=dict)

    def record(self, label: str, ok: bool) -> bool:
        self.checks.append((label, bool(ok)))
        return bool(ok)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list[str]:
        return [label for label, ok in self.checks if not ok]

    def lines(self) -> list[str]:
        out = [f"{'PASS' if self.passed else 'FAIL'} {self.name}"]
        for label, ok in self.checks:
            out.append(f"  [{'ok' if ok else 'FAIL'}] {label}")
        return out
