"""Reply bytes do not depend on the interpreter's string-hash seed.

Equal fingerprints must give byte-identical results in any process:
that is what makes a cached reply valid for every later request.
``repro serve`` runs in two subprocesses, under ``PYTHONHASHSEED`` 0
and 1, on the shipped job and query specs and on an author-identity
exchange whose key EGDs merge many labelled nulls.  Every reply must
be the same bytes once the timing fields (``elapsed``, ``worker``)
are dropped.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: perfbench's data-exchange mapping cut to two source-to-target TGDs
#: and their key EGDs: one venue per journal name, one person per
#: author name.  Labelled nulls are numbered in trigger order, so the
#: replies show any hash-order iteration on the chase's path.
AUTHOR_IDENTITY = """
m1: article(k, t, y, j) -> Pub(k, t, y), PubVenue(k, v), Venue(v, j);
m4: author(k, i, n) -> Wrote(k, i, a), Person(a, n);
e1: Venue(v1, n), Venue(v2, n) -> v1 = v2;
e2: Person(a1, n), Person(a2, n) -> a1 = a2
""".strip()


def author_identity_spec(publications=30, seed=5):
    """About ``publications`` articles with 1-4 authors each, drawn
    with Zipf-like popularity from a small pool of names."""
    rng = random.Random(seed)
    names = [f"Author {chr(ord('A') + i)}" for i in range(12)]
    journals = ["TODS", "VLDB J", "Inf Syst", "JCSS"]
    facts = []
    for index in range(publications):
        key = f"pub{index}"
        facts.append(f"article('{key}', 'Title {index}', "
                     f"{1990 + index % 17}, '{rng.choice(journals)}').")
        for position in range(1, rng.randint(1, 4) + 1):
            rank = min(int(rng.paretovariate(1.0)), len(names)) - 1
            facts.append(f"author('{key}', {position}, '{names[rank]}').")
    return {"name": "author_identity", "constraints": AUTHOR_IDENTITY,
            "instance": "\n".join(facts)}


def request_lines():
    specs = [json.loads(path.read_text())
             for folder in ("jobs", "queries")
             for path in sorted((ROOT / "examples" / folder).glob("*.json"))]
    specs.append(author_identity_spec())
    return [json.dumps(spec, sort_keys=True) for spec in specs]


def serve(lines, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "repro", "serve"],
                          input="\n".join(lines + ["quit"]) + "\n",
                          capture_output=True, text=True, env=env,
                          check=True, timeout=300)
    replies = [json.loads(line) for line in done.stdout.splitlines()]
    for reply in replies:
        reply.pop("elapsed", None)
        reply.pop("worker", None)
    return [json.dumps(reply, sort_keys=True) for reply in replies]


def test_replies_are_identical_under_two_hash_seeds():
    lines = request_lines()
    first, second = serve(lines, "0"), serve(lines, "1")
    assert len(first) == len(lines) == 7
    exchange = json.loads(first[-1])
    # The exchange terminates with its EGDs merging labelled nulls.
    assert exchange["status"] == "terminated"
    assert 0 < exchange["new_nulls"] < exchange["steps"]
    for spec, left, right in zip(lines, first, second):
        assert left == right, json.loads(spec)["name"]
