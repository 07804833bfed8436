"""repro.backend: provenance stubs for the end-to-end benchmark.

There is one kernel implementation (NumPy) and nothing to select; see
DESIGN.md "Kernels".  ``benchmarks/e2e/e2e_protocol.py`` imports these
two names for its provenance stamp and a PR may not edit the benchmark,
so they stay until the next ``benchmark`` PR removes the import and this
module with it.
"""

from __future__ import annotations

__all__ = ["numba_available", "resolve_backend"]


def numba_available() -> bool:
    return False


def resolve_backend(requested: str | None = None) -> str:
    return "numpy"
