"""Contracts on the package source itself."""

import re
from pathlib import Path

import preforge

# A handler that catches every error hides the failures it should report.
BROAD_EXCEPT = re.compile(r"^\s*except\s*(:|.*\b(Base)?Exception\b)")


def test_no_catch_all_exception_handlers():
    package = Path(preforge.__file__).parent
    offenders = [
        f"{path.relative_to(package)}:{lineno}: {line.strip()}"
        for path in sorted(package.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if BROAD_EXCEPT.match(line)
    ]
    assert not offenders, "catch-all exception handlers:\n" + "\n".join(offenders)
