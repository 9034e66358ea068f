"""Bit-identity digest of the gradient suite.

Runs ``run_gradient_suite`` once and prints one SHA-256 over its results and
its zero-gradient names: one line ``<check name> <max_rel_err as float hex>``
per result, joined by newlines, then a newline and the zero-gradient names
joined by spaces.  A change that alters no float result of the suite must
print the same line as its parent commit, so run it on both and compare:

    PYTHONPATH=src python tools/suite_digest.py

It uses only ``run_gradient_suite``, so it runs unchanged on older commits.
"""

from __future__ import annotations

import hashlib

from refseg import gradsuite


def suite_digest() -> str:
    results, zero_names = gradsuite.run_gradient_suite()
    text = "\n".join(f"{r.name} {r.max_rel_err.hex()}" for r in results) + "\n" + " ".join(zero_names)
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    print(suite_digest())
