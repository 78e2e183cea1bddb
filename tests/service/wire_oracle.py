"""The per-occurrence wire encoder: the oracle of the text encoder in
:mod:`repro.service.serialize`.

This is how facts were encoded before results were kept as JSON text:
each fact becomes nested lists (:func:`encode_atom`), is sorted by a
``json.dumps`` of those lists (:func:`atom_sort_key`), and the sorted
list is dumped as a whole.  It encodes every term occurrence on its
own, so it is slow, and obviously right.  The production encoder must
give the same bytes, the same fact order and the same instance
fingerprints.
"""

from __future__ import annotations

import hashlib
import json

from repro.service.serialize import encode_term
from repro.storage.interning import TermTable


def encode_atom(fact) -> list:
    """``[relation, [term, ...]]``."""
    return [fact.relation, [encode_term(arg) for arg in fact.args]]


def atom_sort_key(fact) -> str:
    """A canonical, injective sort key for facts."""
    return json.dumps(encode_atom(fact), sort_keys=True)


def encode_facts(facts) -> list:
    """The facts of any iterable as lists, in canonical order."""
    return [encode_atom(fact) for fact in sorted(facts, key=atom_sort_key)]


def facts_text(facts) -> str:
    """The JSON text a reply carries for these facts."""
    return json.dumps(encode_facts(facts), sort_keys=True)


def rows_text(rows) -> str:
    """The JSON text a reply carries for these answer rows."""
    encoded = sorted(([encode_term(term) for term in row] for row in rows),
                     key=lambda row: json.dumps(row, sort_keys=True))
    return json.dumps(encoded, sort_keys=True)


def instance_fingerprint(instance) -> str:
    """The instance digest over ids interned in canonical fact order."""
    table = TermTable()
    rows = []
    for fact in sorted(instance, key=atom_sort_key):
        rows.append([fact.relation,
                     [table.intern(term) for term in fact.args]])
    terms = [encode_term(table.term(tid)) for tid in range(len(table))]
    payload = json.dumps({"terms": terms, "rows": rows},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
