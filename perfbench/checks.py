"""Correctness checks shared by the workloads.

Each check compares an output of srkit with the float64 reference in
``reference.py`` (or with an exact invariant) and returns a list of
failure messages; an empty list means the check passed. The tolerances
are fixed here, before any run: float32 results carry relative errors of
about 1e-6 after the host's four convolutions and the SR block's
1024-channel squeeze, so 1e-4 of the largest reference magnitude leaves
a wide margin while a single perturbed value, a swapped memory block or
a flipped checkpoint byte still shows.
"""

from __future__ import annotations

import numpy as np

import reference

LOGIT_TOL = 1e-4  # relative to max(1, largest |reference logit|)
GRAD_TOL = 1e-4  # relative to the largest |reference| entry of each tensor
FD_TOL = 1e-5  # relative gap of the reference adjoint to a float64 central difference
SUM_TOL = 1e-5  # alpha rows and per-class activation means must sum to 1
ACCURACY_FLOOR = 0.3  # three times chance for ten classes


def close(name: str, got, want, tol: float, floor: float = 0.0) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    scale = max(float(np.abs(want).max(initial=0.0)), floor, 1e-30)
    err = float(np.abs(got - want).max(initial=0.0)) / scale
    if not err <= tol:  # also catches NaN
        return [f"{name}: relative error {err:.3e} exceeds {tol:g}"]
    return []


def checkpoint_holds(blob: bytes, tensors: dict) -> list[str]:
    """The checkpoint bytes decode to exactly ``tensors``, bit for bit."""
    try:
        _, stored = reference.read_checkpoint(blob)
    except (ValueError, UnicodeDecodeError) as e:
        return [f"checkpoint does not parse: {e}"]
    if sorted(stored) != sorted(tensors):
        return [f"checkpoint tensors {sorted(stored)}, expected {sorted(tensors)}"]
    bad = [k for k in tensors
           if stored[k].shape != tensors[k].shape
           or stored[k].astype(np.float32).tobytes() != np.asarray(tensors[k], np.float32).tobytes()]
    return [f"checkpoint tensor {k} differs from the trained one" for k in bad]


def same_bytes(name: str, first: bytes, second: bytes) -> list[str]:
    return [] if first == second else [f"{name}: bytes differ"]


def logits_match(got: np.ndarray, want: np.ndarray) -> list[str]:
    return close("logits", got, want, LOGIT_TOL, floor=1.0)


def accuracy_matches(accuracy: float, ref_logits: np.ndarray, labels: np.ndarray,
                     floor: float | None = None) -> list[str]:
    """``accuracy`` equals the reference's, up to samples whose two top
    reference logits are closer than twice the logit tolerance (float32 may
    order those either way); optionally clears ``floor``."""
    top2 = np.sort(ref_logits, axis=1)[:, -2:]
    margin = 2 * LOGIT_TOL * max(1.0, float(np.abs(ref_logits).max()))
    ambiguous = int((top2[:, 1] - top2[:, 0] < margin).sum())
    ref_acc = float((ref_logits.argmax(axis=1) == labels).mean())
    out = []
    if abs(accuracy - ref_acc) > ambiguous / len(labels):
        out.append(f"accuracy {accuracy!r} != reference {ref_acc!r} "
                   f"({ambiguous} ambiguous samples)")
    if floor is not None and not accuracy > floor:
        out.append(f"accuracy {accuracy!r} does not clear the floor {floor}")
    return out


def sr_outputs_match(got: dict, want: dict) -> list[str]:
    """Output and the five gradients of the SR block against the reference."""
    out = []
    for name in want:
        out += close(name, got[name], want[name], GRAD_TOL)
    return out


def rows_sum_to_one(name: str, rows: np.ndarray) -> list[str]:
    err = float(np.abs(np.asarray(rows, np.float64).sum(axis=1) - 1.0).max(initial=0.0))
    return [] if err <= SUM_TOL else [f"{name}: rows sum to 1 +- {err:.3e}"]


def identical(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    ok = got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)
    return [] if ok else [f"{name}: not bit-identical"]


def fd_agrees(err: float) -> list[str]:
    return [] if err <= FD_TOL else [f"reference adjoint vs finite difference: {err:.3e}"]


def equal(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: {got!r} != {want!r}"]
