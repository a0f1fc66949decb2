"""Output checks for benchmark jobs.

Every job is checked on every run:

* the exit code must be the expected one (0, or 1 for deliberate input
  errors) and never 2;
* where a reference exists (the default seed, and every seed for the
  fixed job lists), the exit code must match it and the ``--json`` payload
  must hold every reference key with an equal value; a later version may
  add keys but not change existing ones;
* on any seed, the payload must satisfy identities that hold for any
  input: the Euler sums of H^n (when the degree cap reaches dim L) and of
  each complete Dolbeault row vanish, dim H^n <= sum of h^{p,q} over
  p + q = n, and the deformed Euler sum vanishes at full degree.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(workload: str) -> Dict[str, dict]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle).get(workload, {})


def compare(reference, actual, where: str = "$") -> List[str]:
    """Mismatches of `actual` against `reference`; extra dict keys are allowed."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        out: List[str] = []
        for key, value in reference.items():
            if key not in actual:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(compare(value, actual[key], f"{where}.{key}"))
        return out
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{where}: expected a list of {len(reference)}"]
        out = []
        for index, (ref, act) in enumerate(zip(reference, actual)):
            out.extend(compare(ref, act, f"{where}[{index}]"))
        return out
    if type(reference) is not type(actual) or reference != actual:
        return [f"{where}: expected {reference!r}, got {actual!r}"]
    return []


def _alternating(values: Dict[int, int]) -> int:
    return sum((-1) ** k * v for k, v in values.items())


def invariants(payload: dict, dim_l: Optional[int]) -> List[str]:
    """Identities that hold for any input, on analyze and deform payloads."""
    out: List[str] = []
    if "hn_lambda" in payload and "hpq" in payload:
        n = payload["algebra"]["complex_dimension"]
        hn = {int(k): v for k, v in payload["hn_lambda"].items()}
        hpq = {tuple(int(x) for x in k.split(",")): v for k, v in payload["hpq"].items()}
        if payload["max_degree"] == payload["algebra"]["dim_l"] and _alternating(hn):
            out.append(f"Euler sum of H^n is {_alternating(hn)}, not 0")
        for p in range(n + 1):
            row = {q: hpq[(p, q)] for q in range(n + 1) if (p, q) in hpq}
            if len(row) == n + 1 and _alternating(row):
                out.append(f"Euler sum of Dolbeault row p={p} is {_alternating(row)}, not 0")
        for degree, dim in hn.items():
            bound = sum(v for (p, q), v in hpq.items() if p + q == degree)
            if dim > bound:
                out.append(f"dim H^{degree} = {dim} exceeds the Dolbeault sum {bound}")
    if "dims" in payload and "k1_kernel_dim" in payload:
        dims = {int(k): v for k, v in payload["dims"].items()}
        if dim_l is not None and max(dims) == dim_l and _alternating(dims):
            out.append(f"Euler sum of the deformed H^n is {_alternating(dims)}, not 0")
    return out


def check_job(job, exit_code, stdout: str, reference: Dict[str, dict]) -> List[str]:
    """Problems with one job's result; empty when it passes."""
    if exit_code != job.expect:
        return [f"exit code {exit_code}, expected {job.expect}"]
    ref = reference.get(job.key)
    if ref is not None and ref["exit"] != exit_code:
        return [f"exit code {exit_code}, reference {ref['exit']}"]
    if not job.json or exit_code != 0:
        return []
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    try:
        problems = invariants(payload, job.dim_l)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems = [f"payload lacks a field the identities need: {exc!r}"]
    if ref is not None:
        problems.extend(compare(ref["payload"], payload))
    return problems
