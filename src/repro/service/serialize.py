"""Stable wire encoding of terms, facts, instances and answer rows.

Everything that crosses a process boundary in the service layer does
so as plain JSON-able data produced here -- worker processes never
pickle live ``Instance``/``ChaseResult`` objects (instances carry
listeners, posting lists and interning tables that have no business
on a wire).  The encoding is *stable*: encoding the same
content always yields the same bytes (facts are emitted in a canonical
sort order), which is what makes the encodings usable as fingerprint
payloads (:func:`repro.service.jobs.instance_fingerprint`).

Term encoding is tagged so that constants and nulls -- and constants
of different Python types -- never collide::

    Constant("a")  ->  ["c", "a"]
    Constant(7)    ->  ["c", 7]
    Null(3)        ->  ["n", 3]

An atom is ``[relation, [term, ...]]``; an instance is a dict carrying
its sorted fact list.  A chase result crosses the wire only as a
:class:`repro.service.jobs.JobResult` (the step sequence deliberately
never does -- it holds live constraint and assignment objects and is
only consumed by in-process analyses).

Job results are encoded once, as JSON text.  :func:`encode_facts`
builds each fact's text ``["R", [["c", "a"], ["n", 1]]]`` from one
fragment per term, made without ``json`` for string and int constants
and nulls, and sorts those strings: the text of a fact is also its
canonical sort key, so the sort needs no second encoding.  The joined
text is exactly ``json.dumps`` of the sorted fact list, and
:func:`encode_rows` does the same for certain-answer rows.  The
service keeps and ships that text; the HTTP gateway splices it into
reply bodies with :func:`dumps` and :class:`RawJSON`, and only dict
consumers (``JobResult.to_dict``, the NDJSON reply, the CLI) decode
it.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, List, Optional, Sequence

from repro.lang.atoms import Atom
from repro.lang.errors import ReproError
from repro.lang.instance import Instance
from repro.lang.terms import Constant, GroundTerm, Null


class WireError(ReproError):
    """Raised on malformed wire payloads or unencodable values."""


def encode_term(term: GroundTerm) -> list:
    """``["c", value]`` for constants, ``["n", label]`` for nulls."""
    if isinstance(term, Constant):
        if not isinstance(term.value, (str, int, float, bool)):
            raise WireError(f"constant value {term.value!r} is not "
                            "JSON-encodable")
        return ["c", term.value]
    if isinstance(term, Null):
        return ["n", term.label]
    raise WireError(f"cannot encode non-ground term {term!r}")


def decode_term(payload: Any) -> GroundTerm:
    """The inverse of :func:`encode_term`, refusing anything it does
    not write: a constant is a string, a boolean or a finite number, a
    null label an integer, each of the exact type ``json`` decodes it
    to."""
    # The isinstance guard matters: bare strings like "c7" would also
    # unpack into two characters and decode silently wrong.
    if not isinstance(payload, (list, tuple)) or len(payload) != 2:
        raise WireError(f"malformed term payload {payload!r}")
    tag, value = payload
    kind = type(value)
    if tag == "c":
        if kind in (str, bool, int) or (kind is float
                                        and math.isfinite(value)):
            return Constant(value)
        raise WireError(f"constant must be a string, a boolean or a "
                        f"finite number, got {value!r}")
    if tag == "n":
        if kind is int:
            return Null(value)
        raise WireError(f"null label must be an integer, got {value!r}")
    raise WireError(f"unknown term tag {tag!r}")


def decode_atom(payload: Any) -> Atom:
    if not isinstance(payload, (list, tuple)) or len(payload) != 2:
        raise WireError(f"malformed atom payload {payload!r}")
    relation, args = payload
    if not isinstance(relation, str) or not isinstance(args, (list, tuple)):
        raise WireError(f"malformed atom payload {payload!r}")
    return Atom(relation, tuple(decode_term(arg) for arg in args))


#: ``json.dumps(value, sort_keys=True)`` without building an encoder
#: per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _term_text(term: GroundTerm) -> str:
    """The JSON text of :func:`encode_term`, with the common cases --
    string and int constants, int-labelled nulls -- built directly."""
    kind = type(term)
    if kind is Constant:
        value = term.value
        if type(value) is str:
            return f'["c", {encode_basestring_ascii(value)}]'
        if type(value) is int:
            return f'["c", {value}]'
    elif kind is Null and type(term.label) is int:
        return f'["n", {term.label}]'
    return _encode(encode_term(term))


def _fact_texts(facts: Iterable[Atom]) -> List[str]:
    """The JSON text ``[relation, [term, ...]]`` of each fact."""
    heads: dict = {}          # relation name -> '["R", ['
    texts = []
    for fact in facts:
        head = heads.get(fact.relation)
        if head is None:
            head = heads[fact.relation] = f"[{_encode(fact.relation)}, ["
        texts.append(head + ", ".join(map(_term_text, fact.args)) + "]]")
    return texts


def canonical_facts(facts: Iterable[Atom]) -> List[Atom]:
    """The facts of any iterable in canonical order: sorted by their
    JSON text (stable, so equal texts keep their input order)."""
    facts = list(facts)
    texts = _fact_texts(facts)
    return [facts[index]
            for index in sorted(range(len(facts)), key=texts.__getitem__)]


def encode_facts(facts: Iterable[Atom]) -> str:
    """The JSON text of the facts of any iterable, in canonical order:
    ``json.dumps`` of their sorted ``[relation, [term, ...]]`` list."""
    texts = _fact_texts(facts)
    texts.sort()
    return "[" + ", ".join(texts) + "]"


def encode_rows(rows: Iterable[Sequence[GroundTerm]]) -> str:
    """The JSON text of term rows (certain answers), sorted by each
    row's text, as :func:`encode_facts` sorts facts."""
    texts = ["[" + ", ".join(map(_term_text, row)) + "]" for row in rows]
    texts.sort()
    return "[" + ", ".join(texts) + "]"


class RawJSON:
    """JSON text that :func:`dumps` splices into a payload verbatim.

    Not a ``str``: a ``RawJSON`` that reaches ``json.dumps`` raises
    ``TypeError`` instead of being quoted as a string.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def raw(text: Optional[str]) -> Optional[RawJSON]:
    """``text`` to splice, or None (JSON ``null``) for no text."""
    return None if text is None else RawJSON(text)


def dumps(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True)``, except that each
    top-level :class:`RawJSON` value is spliced in as its text.

    The keys between two raw values are encoded by one ``json`` call,
    so only the raw texts are copied rather than re-encoded.
    """
    parts = []
    run: dict = {}
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, RawJSON):
            if run:
                parts.append(_encode(run)[1:-1])
                run = {}
            parts.append(f"{_encode(key)}: {value.text}")
        else:
            run[key] = value
    if run:
        parts.append(_encode(run)[1:-1])
    return "{" + ", ".join(parts) + "}"


def encode_instance(instance: Instance) -> dict:
    """A stable dict encoding of an instance (its sorted facts)."""
    return {"facts": json.loads(encode_facts(instance))}


def decode_instance(payload: dict) -> Instance:
    """Rebuild an instance from :func:`encode_instance`'s dict."""
    if not isinstance(payload, dict) \
            or not isinstance(payload.get("facts"), list):
        raise WireError(f"malformed instance payload {payload!r}")
    return Instance(decode_atom(fact) for fact in payload["facts"])
