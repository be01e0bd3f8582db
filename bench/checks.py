"""Output checks: a job passes when it exits with the expected code, prints
exactly one JSON document, and that document carries the verdict the job's
construction fixes (see workloads.py)."""

from __future__ import annotations

import json
from fractions import Fraction as F


def _canon_plane(plane):
    normal = [F(x) for x in plane["normal"]]
    lead = next(x for x in normal if x != 0)
    return [str(x / lead) for x in normal], str(F(plane["offset"]) / lead)


def _has_planes(arrangement, planes) -> bool:
    got = {h["id"]: (h["normal"], h["offset"]) for h in arrangement["hyperplanes"]}
    return all(got.get(p["id"]) == tuple(_canon_plane(p)) for p in planes)


def _square(m, dim) -> bool:
    return len(m) == dim and all(len(row) == dim for row in m)


def failure(job, code, out, golden=None):
    """None when the job's output is right, else a one-line reason."""
    expect = job["expect"]
    if code != expect["code"]:
        return f"exit code {code}, expected {expect['code']}"
    if golden is not None:
        return None if out == golden else "output differs from the golden file"
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"stdout is not exactly one JSON document: {exc}"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    try:
        return _verdict(expect, doc)
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        return f"malformed payload: {exc!r}"


def _verdict(expect, doc):
    if "ok" in expect:
        if doc["ok"] is not expect["ok"]:
            return f"ok is {doc['ok']}, expected {expect['ok']}"
        if bool(doc["violations"]) == expect["ok"]:
            return "violation list disagrees with ok"
    if "planes" in expect:
        arrangement = doc.get("closure", doc)
        if not _has_planes(arrangement, expect["planes"]):
            return "an input hyperplane is missing from the closure"
    if "rank" in expect:
        n = len(doc["block_order"])
        dim = doc["dim"]
        full = n * expect["rank"]
        if "k_dim" in doc:
            if doc["direct_sum"] and dim != full - doc["k_dim"] - doc["l_dim"]:
                return "dim != n*rank - k_dim - l_dim"
            if expect.get("l_positive") and doc["l_dim"] == 0:
                return "l_dim is 0 at a parameter chosen to make it positive"
        elif dim != full:
            return "convolution dim != n*rank"
        closure_ids = [h["id"] for h in doc["closure"]["hyperplanes"]]
        if sorted(doc["matrices"]) != sorted(closure_ids):
            return "not one matrix per closure hyperplane"
        if not all(_square(m, dim) for m in doc["matrices"].values()):
            return "a matrix is not dim x dim"
    if "offenders" in expect:
        want = [{"where": w, "integer": m} for w, m in expect["offenders"]]
        if doc != {"pass": not want, "offenders": want}:
            return f"rh-check offenders {doc['offenders']}, expected {want}"
    if "irreducible" in expect and doc["irreducible"] is not expect["irreducible"]:
        return f"irreducible is {doc['irreducible']}, expected {expect['irreducible']}"
    if expect.get("generic") and not (doc["stars"]["holds_star"] and doc["stars"]["holds_dstar"]):
        return "genericity fails on an irreducible tuple of dimension >= 2"
    if "star_fails" in expect:
        stars = doc["stars"]
        if stars["holds_star"]:
            return "kernel condition holds on a tuple built to fail it"
        hit = [w for w in stars["star_witnesses"] if w["generator"] == expect["star_fails"]]
        if not hit or hit[0]["c"] != expect["star_root"] or not any(x != "0" for x in hit[0]["vector"]):
            return f"no witness at c = {expect['star_root']} for generator {expect['star_fails']}"
    if "isomorphic" in expect:
        if not doc["applicable"] or doc.get("isomorphic") is not True:
            return "composition law not certified"
        if expect.get("identity") and doc["identity_iso"]["verdict"] != "isomorphic":
            return "lambda + mu = 0 but the composite is not identified with the input"
    return None
