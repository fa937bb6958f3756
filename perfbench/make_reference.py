"""Rewrite the committed reference outputs under ``perfbench/reference/``.

Run from the root of a checkout whose verdicts are known to be right::

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes the byte-exact JSON of reproduce-b2 and of universe-b3's
``universe`` part for the default seed, and the digest of catalog-mix's
instance classes with the answer digests of every query on each class
(the same for every seed). Every op is checked
against the verdict-level invariants before its answer is recorded.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    DEFAULT_SEED,
    REFERENCE_DIR,
    CatalogMix,
    ReproduceB2,
    UniverseB3,
)


def cli_text(wl) -> str:
    answer = wl.run(0)
    err = wl.check(0, answer)
    if err:
        sys.exit(f"{wl.name}: {err}")
    return answer[1]


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / "reproduce-b2.json").write_text(
        cli_text(ReproduceB2(DEFAULT_SEED)), encoding="utf-8")
    (REFERENCE_DIR / "universe-b3.seed0.json").write_text(
        cli_text(UniverseB3(DEFAULT_SEED)), encoding="utf-8")

    wl = CatalogMix(DEFAULT_SEED)
    for i in range(len(wl.ops)):
        err = wl.check(i, wl.run(i))  # records the answer digest in wl.answers
        if err:
            sys.exit(f"{wl.name}: {err}")
    answers = [{} for _ in wl.pool]
    for (k, query), d in wl.answers.items():
        answers[k][query] = d
    (REFERENCE_DIR / "catalog-mix.json").write_text(
        json.dumps({"classes_digest": wl.classes_digest, "answers": answers}) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
