"""Output checks against references built from mpmath alone.

No `ellseries` code is imported here.  The headline constant
Gamma(1/4)^2/pi^(3/2) is 2/agm(1, 1/sqrt(2)) (mpmath's gamma is far too
slow at 10k digits); K and E at the singular modulus k_r are mpmath's
ellipk/ellipe at the parameter m = k_r^2 = (theta2(q)/theta3(q))^4 with
q = exp(-pi sqrt(r)) (k_r itself is theta2^2/theta3^2).

Digits are compared as strings, so nothing here converts a huge integer to
a string (CPython refuses above 4300 digits by default, and the benchmark
must not raise that limit).
"""

from __future__ import annotations

import json
import math
from typing import Optional, Tuple

import mpmath

from workloads import Op

REF_EXTRA_DIGITS = 20

# JSON keys of `constant` and `elliptic` output, as documented in README.md.
RESULT_KEYS = frozenset({
    "command", "target_digits", "value_digits", "terms_used", "digits_per_term",
    "oracle_agreement_digits", "elapsed_seconds", "warnings",
})
VERIFY_CHECKS = 36

# Digits compared beyond the first mismatch to size the difference.
_WINDOW = 30


def reference(op: Op) -> Optional[str]:
    """The op's value to target+20 significant digits (None for verify ops)."""
    digits = op.target + REF_EXTRA_DIGITS
    mp = mpmath.MPContext()
    if op.kind == "constant":
        mp.dps = digits + 10
        return mp.nstr(2 / mp.agm(1, 1 / mp.sqrt(2)), digits, strip_zeros=False)
    if op.kind not in ("K", "E"):
        return None
    # m = 1 - (theta4/theta3)^4 cancels when q is near 1 (r < 1); carry the
    # cancelled digits as extra working precision.
    mp.dps = 30
    q = mp.exp(-mp.pi * mp.sqrt(mp.mpf(op.r.numerator) / op.r.denominator))
    lost = -4 * mp.log10(mp.jtheta(4, 0, q) / mp.jtheta(3, 0, q))
    mp.dps = digits + 10 + int(lost)
    q = mp.exp(-mp.pi * mp.sqrt(mp.mpf(op.r.numerator) / op.r.denominator))
    m = (mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 4
    value = mp.ellipk(m) if op.kind == "K" else mp.ellipe(m)
    return mp.nstr(value, digits, strip_zeros=False)


def digit_form(s: str) -> Tuple[str, int, str]:
    """(sign, decimal exponent of the first digit, significant digits) of a decimal string.

    Accepts the forms `to_decimal_string` and `mpmath.nstr` print:
    "2.36", "12.5", "0.000123", "1.5e-300".
    """
    s = s.strip()
    sign = "-" if s.startswith("-") else ""
    s = s.lstrip("+-")
    exp = 0
    if "e" in s.lower():
        s, e = s.lower().split("e")
        exp = int(e)
    int_part, _, frac = s.partition(".")
    if not (int_part + frac).isdigit():
        raise ValueError(f"not a decimal number: {s[:40]!r}")
    digits = int_part + frac
    lead = len(digits) - len(digits.lstrip("0"))
    digits = digits[lead:]
    if not digits:
        return sign, 0, "0"
    return sign, exp + len(int_part) - 1 - lead, digits


def agreement_digits(value: str, ref: str) -> float:
    """Decimal digits of relative agreement between two decimal strings.

    The prefix up to the first differing digit cancels exactly, so only a
    short window after it is converted to integers.  A value shorter than
    the reference (a truncated result) is compared as if zero-padded.
    """
    vs, ve, vd = digit_form(value)
    rs, re_, rd = digit_form(ref)
    if vs != rs or abs(ve - re_) > 1:
        return 0.0
    if ve < re_:
        vd = "0" + vd
    elif re_ < ve:
        rd = "0" + rd
    vd = vd[:len(rd)].ljust(len(rd), "0")
    i = next((j for j, (a, b) in enumerate(zip(vd, rd)) if a != b), None)
    if i is None:
        return float(len(rd))
    n = int(rd[i:i + _WINDOW].ljust(_WINDOW, "0")) - int(vd[i:i + _WINDOW].ljust(_WINDOW, "0"))
    lead = int(rd[:18].ljust(18, "0"))
    # |ref - value| / |ref| = |n| 10^(-i-W+1) / (lead 10^-17)
    return i + _WINDOW - 18 + math.log10(lead) - math.log10(abs(n))


def check_output(op: Op, stdout: str, ref: Optional[str]) -> Optional[str]:
    """None when the op's stdout is a correct result, else what is wrong."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON document"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    if op.kind == "verify":
        checks = doc.get("checks")
        if doc.get("passed") is not True:
            return "verify reports passed != true"
        if not isinstance(checks, list) or len(checks) != VERIFY_CHECKS:
            return f"verify reports {len(checks) if isinstance(checks, list) else 'no'} checks, expected {VERIFY_CHECKS}"
        return None
    if set(doc) != RESULT_KEYS:
        return f"JSON keys {sorted(doc)} differ from the documented set"
    value = doc["value_digits"]
    if not isinstance(value, str):
        return "value_digits is not a string"
    try:
        agree = agreement_digits(value, ref)
    except ValueError as e:
        return str(e)
    if agree < op.target - 5:
        return f"value agrees with the reference to {agree:.1f} digits, needs {op.target - 5}"
    return None
