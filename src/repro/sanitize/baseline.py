"""Recorded-debt baselines for the lint engine.

A baseline file lets a new rule land while the tree still carries known
violations: ``python -m repro lint --write-baseline debt.json`` records
the current findings, and subsequent ``--baseline debt.json`` runs
report only findings *not* in the record — the tree stays green while
the debt is paid down site by site.

Baseline identity is ``(rule, path, message)`` with a count (not the
line number), so unrelated edits that shift lines do not resurrect
recorded debt, while a *new* violation of the same rule in the same
file with a different message — or one more occurrence of an identical
message — still fails the run.
"""

from __future__ import annotations

import json


def write_baseline(path: str, findings) -> int:
    """Record ``findings`` as the debt file at ``path``; returns count."""
    entries = {}
    for f in findings:
        key = "\x00".join((f.rule, f.path, f.message))
        entries[key] = entries.get(key, 0) + 1
    doc = {
        "version": 1,
        "entries": [
            {"rule": k.split("\x00")[0], "path": k.split("\x00")[1],
             "message": k.split("\x00")[2], "count": v}
            for k, v in sorted(entries.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return len(findings)


def load_baseline(path: str) -> dict:
    """``{(rule, path, message): count}`` from a debt file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(f"unsupported baseline version in {path}")
    return {
        (e["rule"], e["path"], e["message"]): int(e.get("count", 1))
        for e in doc.get("entries", [])
    }


def apply_baseline(findings, baseline: dict):
    """Subtract the baseline and surface paid-off debt.

    Returns ``(fresh_findings, n_suppressed, stale)`` where ``stale``
    lists the recorded entries (fully or partially) matching no current
    finding as ``[((rule, path, message), unused_count), ...]`` — debt
    that has been fixed and should be pruned so it cannot quietly mask
    a future regression (``--write-baseline`` rewrites from the current
    findings, which prunes them).
    """
    budget = dict(baseline)
    fresh = []
    n_suppressed = 0
    for f in findings:
        key = f.key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            n_suppressed += 1
        else:
            fresh.append(f)
    stale = sorted(
        (key, left) for key, left in budget.items() if left > 0
    )
    return fresh, n_suppressed, stale
