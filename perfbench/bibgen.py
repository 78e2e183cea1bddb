"""Seeded, offline generator of DBLP-shaped bibliographic workloads.

Everything here is a pure function of its arguments: randomness comes
from ``random.Random`` objects seeded with strings (SHA-512 inside
``random``), so the same seed gives the same bytes under any
``PYTHONHASHSEED``.  Nothing is read from disk or the network.

The source schema mirrors the DBLP XML records of *A Decade of
Database Research Publications*:

* ``article(key, title, year, journal)``
* ``inproc(key, title, year, crossref)``
* ``author(key, position, name)``   -- one fact per author-list entry
* ``crossref(ckey, booktitle, year)`` -- proceedings volumes
* ``venue(name, publisher)``

Three mappings (``MAPPINGS``) take it to target schemas, one per
termination class the scheduler treats differently.  Each is built so
that its chase is *confluent* on generated data: every trigger fires
at most once whatever the order, so steps, new nulls and the result
up to null renaming are order-independent.  That is what lets
``expected_*`` compute the outcome of every request with plain set
logic, independently of the program and of the hash seed.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

#: Source-to-target mappings.  ``wa_egd`` is weakly acyclic with key
#: EGDs (one venue per name, author identity, one venue per
#: crossref); ``safe`` adds an Example 8-shaped TGD, so it is safe
#: but not weakly acyclic; ``stratified`` embeds Example 4 and is only
#: stratified, so the scheduler must pin Theorem 2's stratum order.
#: The stratified mapping deliberately carries no key EGD: with one,
#: ``analyze()`` does not finish (see ``manifest.json``).
MAPPINGS: Dict[str, str] = {
    "wa_egd": """
m1: article(k, t, y, j) -> Pub(k, t, y), PubVenue(k, v), Venue(v, j);
m2: inproc(k, t, y, c) -> Pub(k, t, y), PartOf(k, c), PubVenue(k, v), Volume(c, v);
m3: crossref(c, b, y) -> Volume(c, v), Venue(v, b);
m4: author(k, i, n) -> Wrote(k, i, a), Person(a, n);
m5: venue(n, p) -> Venue(v, n), Publisher(v, p);
e1: Venue(v1, n), Venue(v2, n) -> v1 = v2;
e2: Person(a1, n), Person(a2, n) -> a1 = a2;
e3: Volume(c, v1), Volume(c, v2) -> v1 = v2
""".strip(),
    "safe": """
s1: article(k, t, y, j) -> Pub(k, t, y), InJournal(k, j);
s2: author(k, i, n) -> Wrote(k, n, i);
s3: author(k, 1, n) -> Lead(n);
beta: Wrote(x1, x2, x3), Lead(x2) -> Wrote(x2, y, x1)
""".strip(),
    "stratified": """
t1: inproc(k, t, y, c) -> Pub(k, t, y), PartOf(k, c);
t2: crossref(c, b, y) -> Vol(c);
t3: author(k, i, n) -> Wrote(k, i, n);
t4: article(k, t, y, j) -> Pub(k, t, y), InJournal(k, j);
a1: Vol(x1) -> Ed(x1, x1);
a2: Ed(x1, x2) -> Ref(x2, z);
a3: Ed(x1, x2) -> Ref(x1, x2), Ref(x2, x1);
a4: Ref(x1, x2), Ref(x1, x3), Ref(x3, x1) -> Vol(x2)
""".strip(),
}

#: The mapping that was left out, and why (recorded in the manifest).
EXCLUDED_EGD = "e0: PartOf(k, c1), PartOf(k, c2) -> c1 = c2"

#: Constraint sets of the certain-answer knowledge bases.  ``kb_egd``
#: and ``kb_safe`` are closed (their instances already satisfy them);
#: ``kb_guarded`` is the Introduction's divergent guarded set, so its
#: queries take the depth-bounded fallback.
KB_SIGMAS: Dict[str, str] = {
    "kb_egd": """
k1: Pub(k, t, y) -> PubVenue(k, v);
k2: PubVenue(k, v) -> Venue(v, n);
k3: Wrote(k, i, a) -> Person(a, n);
k4: PartOf(k, c) -> Volume(c, v);
k5: Venue(v1, n), Venue(v2, n) -> v1 = v2;
k6: Person(a1, n), Person(a2, n) -> a1 = a2;
k7: Volume(c, v1), Volume(c, v2) -> v1 = v2
""".strip(),
    "kb_safe": """
beta: Wrote(x1, x2, x3), Lead(x2) -> Wrote(x2, y, x1)
""".strip(),
    "kb_guarded": """
g1: Indexed(x) -> Cites(x, y), Indexed(y)
""".strip(),
}

NULL = None  # placeholder for a labelled null in expected facts

Fact = Tuple[str, tuple]

JOURNALS = ("Proc. VLDB Endow.", "ACM Trans. Database Syst.",
            "VLDB J.", "IEEE Trans. Knowl. Data Eng.", "SIGMOD Rec.",
            "Inf. Syst.", "Data Knowl. Eng.", "Proc. ACM Manag. Data",
            "J. ACM", "Theor. Comput. Sci.", "Inf. Process. Lett.",
            "Distributed Parallel Databases")
CONFERENCES = ("SIGMOD Conference", "ICDE", "EDBT", "PODS", "ICDT",
               "CIDR", "KR", "IJCAI", "AAAI", "WWW", "CIKM", "DEXA",
               "SSDBM", "DASFAA")
PUBLISHERS = ("ACM", "IEEE", "Springer", "Elsevier", "VLDB Endowment",
              "OpenProceedings.org", "AAAI Press")
_SYLLABLES = ("an", "ber", "chi", "da", "el", "fa", "gor", "hu", "is",
              "jo", "ka", "lin", "mar", "ni", "ol", "pe", "qui", "ro",
              "sa", "ti", "ul", "vo", "wen", "xi", "ya", "zo")
_WORDS = ("Chase", "Termination", "Stratification", "Query", "Answering",
          "Constraints", "Tuple-Generating", "Dependencies", "Data",
          "Exchange", "Semantic", "Optimization", "Guarded", "Ontologies",
          "Incremental", "Views", "Efficient", "Scalable", "Provenance",
          "Certain", "Answers", "Schema", "Mappings", "Integration",
          "Cleaning", "Repairs", "Consistent", "Join", "Processing")


#: Generator parameters (``manifest.json`` records where each comes
#: from).  Author popularity follows Lotka's law -- the number of
#: authors with ``n`` papers falls as ``1/n**2`` -- whose rank-frequency
#: form is Zipf with exponent 1.  The venue skew, the article share
#: and the author-list lengths are assumptions.
AUTHOR_SKEW = 1.0
VENUE_SKEW = 0.8
ARTICLE_SHARE = 0.4


def rng_for(*parts) -> random.Random:
    """A private RNG keyed on a version tag and ``parts``."""
    return random.Random("perfbench:v1:" + ":".join(map(str, parts)))


def pareto_quantiles(count: int, alpha: float, low: float,
                     high: float) -> List[int]:
    """``count`` evenly spaced quantiles of a Pareto(``alpha``)
    distribution truncated to ``[low, high]``, as whole numbers.

    Quantiles rather than draws: every seed gets the same multiset of
    sizes (only their order and content change), so the total work of
    a run -- and its tail -- does not swing with the seed.
    """
    ratio = 1.0 - (low / high) ** alpha
    return [int(round(low / (1.0 - ((i + 0.5) / count) * ratio)
                      ** (1.0 / alpha))) for i in range(count)]


def _name(rng: random.Random) -> str:
    def word(parts):
        return "".join(rng.choice(_SYLLABLES)
                       for _ in range(parts)).capitalize()
    return f"{word(2)} {word(rng.randint(2, 3))}"


def author_pool(seed: int, size: int) -> List[str]:
    """``size`` distinct synthetic author names (popularity = rank)."""
    rng = rng_for("authors", seed)
    names: List[str] = []
    seen = set()
    while len(names) < size:
        name = _name(rng)
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def zipf_picker(rng: random.Random, population: Sequence, skew: float):
    """A sampler over ``population`` with weight ``1/rank**skew``."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(population))]
    total = 0.0
    cumulative = []
    for weight in weights:
        total += weight
        cumulative.append(total)

    def pick():
        return population[bisect.bisect_left(cumulative,
                                             rng.random() * total)]
    return pick


def zipf_quantiles(population: Sequence, skew: float, count: int) -> list:
    """``count`` picks from ``population`` at evenly spaced quantiles of
    the weights ``1/rank**skew``: like :func:`pareto_quantiles`, the same
    multiset for every seed."""
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** skew for rank in range(len(population))))
    total = cumulative[-1]
    return [population[bisect.bisect_left(cumulative,
                                          (i + 0.5) / count * total)]
            for i in range(count)]


@dataclass
class Source:
    """One DBLP-shaped source instance (plain tuples)."""

    article: List[tuple]
    inproc: List[tuple]
    crossref: List[tuple]
    author: List[tuple]
    venue: List[tuple]

    def facts(self) -> List[Fact]:
        out: List[Fact] = []
        for relation in ("article", "inproc", "crossref", "author",
                         "venue"):
            out.extend((relation, row) for row in getattr(self, relation))
        return out


def source_instance(rng: random.Random, n_pubs: int, tag: str,
                    authors: Sequence[str]) -> Source:
    """A source instance with ``n_pubs`` publications.

    Author lists have 1-8 entries (mostly one or two, 2.4 on average)
    drawn by Zipf popularity from ``authors``; venues are Zipf-skewed
    too.  Keys embed ``tag``, so instances built with distinct tags
    never share a publication.
    """
    pick_author = zipf_picker(rng, authors, AUTHOR_SKEW)
    pick_journal = zipf_picker(rng, JOURNALS, VENUE_SKEW)
    pick_conf = zipf_picker(rng, CONFERENCES, VENUE_SKEW)
    article, inproc, author = [], [], []
    volumes: Dict[str, tuple] = {}
    venues_used = set()
    for index in range(n_pubs):
        year = 2000 + rng.randint(0, 24)
        title = " ".join(rng.choice(_WORDS)
                         for _ in range(rng.randint(3, 7))) + "."
        if rng.random() < ARTICLE_SHARE:
            journal = pick_journal()
            key = f"journals/{tag}/A{index}"
            article.append((key, title, year, journal))
            venues_used.add(journal)
        else:
            conf = pick_conf()
            ckey = f"conf/{conf.split()[0].lower()}/{year}"
            key = f"conf/{tag}/P{index}"
            inproc.append((key, title, year, ckey))
            # A few volumes have no crossref record, as in real dumps.
            if ckey not in volumes and rng.random() < 0.9:
                volumes[ckey] = (ckey, conf, year)
                venues_used.add(conf)
        count = min(8, max(1, int(rng.paretovariate(2.0) * 1.6)))
        chosen: List[str] = []
        while len(chosen) < count:
            name = pick_author()
            if name not in chosen:
                chosen.append(name)
        for position, name in enumerate(chosen, start=1):
            author.append((key, position, name))
    venue = [(name, PUBLISHERS[stable_index(name, len(PUBLISHERS))])
             for name in sorted(venues_used)]
    return Source(article=article, inproc=inproc,
                  crossref=sorted(volumes.values()), author=author,
                  venue=venue)


def stable_index(text: str, modulo: int) -> int:
    """A hash-seed-independent bucket of ``text``."""
    return int(hashlib.sha256(text.encode()).hexdigest(), 16) % modulo


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_term(value) -> str:
    if isinstance(value, int):
        return str(value)
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def render_facts(facts: Iterable[Fact]) -> str:
    """Instance text, one fact per line (the job-spec ``instance``)."""
    return "\n".join(f"{relation}({', '.join(map(render_term, args))})."
                     for relation, args in facts)


# ----------------------------------------------------------------------
# Expected outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Expected:
    """What a reply must contain, whatever the hash seed."""

    status: str
    steps: int
    new_nulls: int
    count: int          # facts (chase jobs) or answers (query jobs)
    digest: str         # null-blind digest of facts, or of answers


def _encoded_key(relation: str, args: tuple) -> str:
    return json.dumps([relation, [["n", "_"] if arg is NULL else ["c", arg]
                                  for arg in args]], sort_keys=True)


def facts_digest(facts: Iterable[Fact]) -> Tuple[int, str]:
    """Count and null-blind digest of expected facts (``NULL`` args)."""
    keys = sorted(_encoded_key(relation, args) for relation, args in facts)
    return len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()


def reply_facts_digest(encoded: Sequence[list]) -> Tuple[int, str]:
    """Count and null-blind digest of a reply's encoded ``facts``:
    every null becomes one placeholder, so any null labelling of the
    same result gives the same digest."""
    keys = sorted(json.dumps([relation,
                              [["n", "_"] if term[0] == "n" else term
                               for term in args]], sort_keys=True)
                  for relation, args in encoded)
    return len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()


def answers_digest(rows: Iterable[Sequence]) -> Tuple[int, str]:
    """Count and digest of constant answer rows (plain values)."""
    keys = sorted(json.dumps([["c", value] for value in row])
                  for row in rows)
    return len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()


def reply_answers_digest(encoded: Sequence[list]) -> Tuple[int, str]:
    keys = sorted(json.dumps(row) for row in encoded)
    return len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()


def expected_exchange(source: Source, mapping: str) -> Expected:
    """The chase outcome of ``source`` under ``mapping``.

    Every s-t trigger is active until it fires (each writes a fact
    keyed on its own source tuple), so it fires exactly once; each EGD
    step merges two distinct nulls of one equivalence class, so a
    class of ``m`` nulls costs ``m - 1`` steps in any order.
    """
    facts: List[Fact] = list(source.facts())
    steps = new_nulls = 0
    if mapping == "wa_egd":
        names = set()        # Venue names (one class each)
        volumes = set()      # crossref keys with a Volume fact
        for key, title, year, journal in source.article:
            facts += [("Pub", (key, title, year)), ("PubVenue", (key, NULL))]
            names.add(journal)
        for key, title, year, ckey in source.inproc:
            facts += [("Pub", (key, title, year)), ("PartOf", (key, ckey)),
                      ("PubVenue", (key, NULL))]
            volumes.add(ckey)
        for ckey, booktitle, year in source.crossref:
            volumes.add(ckey)
            names.add(booktitle)
        for name, publisher in source.venue:
            names.add(name)
            facts.append(("Publisher", (NULL, publisher)))
        persons = set()
        for key, position, name in source.author:
            facts.append(("Wrote", (key, position, NULL)))
            persons.add(name)
        facts += [("Venue", (NULL, name)) for name in names]
        facts += [("Volume", (ckey, NULL)) for ckey in volumes]
        facts += [("Person", (NULL, name)) for name in persons]
        # Each venue-id null is anchored at its name (m1, m5) or its
        # volume (m2); m3's null joins its volume to its booktitle.
        # e1 merges by name, e3 by volume: a class of m nulls costs
        # m - 1 merges.
        parent: Dict[tuple, tuple] = {}

        def find(node):
            while parent.setdefault(node, node) != node:
                node = parent[node]
            return node

        anchors = [("name", row[3]) for row in source.article]
        anchors += [("vol", row[3]) for row in source.inproc]
        for ckey, booktitle, _ in source.crossref:
            anchors.append(("vol", ckey))
            parent[find(("vol", ckey))] = find(("name", booktitle))
        anchors += [("name", name) for name, _ in source.venue]
        venue_merges = len(anchors) - len({find(a) for a in anchors})
        person_merges = len(source.author) - len(persons)
        st_steps = (len(source.article) + len(source.inproc)
                    + len(source.crossref) + len(source.author)
                    + len(source.venue))
        steps = st_steps + venue_merges + person_merges
        new_nulls = st_steps
    elif mapping == "safe":
        for key, title, year, journal in source.article:
            facts += [("Pub", (key, title, year)),
                      ("InJournal", (key, journal))]
        leads = {name for _, position, name in source.author
                 if position == 1}
        pairs = {(key, name) for key, _, name in source.author
                 if name in leads}
        facts += [("Wrote", (key, name, position))
                  for key, position, name in source.author]
        facts += [("Lead", (name,)) for name in leads]
        facts += [("Wrote", (name, NULL, key)) for key, name in pairs]
        steps = (len(source.article) + len(source.author) + len(leads)
                 + len(pairs))
        new_nulls = len(pairs)
    elif mapping == "stratified":
        for key, title, year, ckey in source.inproc:
            facts += [("Pub", (key, title, year)), ("PartOf", (key, ckey))]
        for key, title, year, journal in source.article:
            facts += [("Pub", (key, title, year)),
                      ("InJournal", (key, journal))]
        facts += [("Wrote", row) for row in source.author]
        for ckey, _, _ in source.crossref:
            facts += [("Vol", (ckey,)), ("Ed", (ckey, ckey)),
                      ("Ref", (ckey, ckey))]
        steps = (len(source.inproc) + len(source.article)
                 + len(source.author) + 3 * len(source.crossref))
    else:
        raise ValueError(f"unknown mapping {mapping!r}")
    count, digest = facts_digest(facts)
    return Expected("terminated", steps, new_nulls, count, digest)


def exchange_spec(source: Source, mapping: str, name: str) -> dict:
    return {"kind": "chase", "name": name,
            "constraints": MAPPINGS[mapping],
            "instance": render_facts(source.facts()),
            "strategy": "auto"}


# ----------------------------------------------------------------------
# Knowledge bases and queries (the ``answer`` workload)
# ----------------------------------------------------------------------
@dataclass
class KnowledgeBase:
    name: str
    sigma: str
    facts: List[Fact]
    max_steps: int = 10_000


def closed_egd_kb(rng: random.Random, n_pubs: int, tag: str,
                  authors: Sequence[str]) -> KnowledgeBase:
    """A bibliographic KB that already satisfies ``KB_SIGMAS['kb_egd']``:
    the universal solution of ``wa_egd`` with every null named."""
    source = source_instance(rng, n_pubs, tag, authors)
    facts: List[Fact] = []
    venue_id: Dict[str, str] = {}

    def vid(name):
        return venue_id.setdefault(name, f"v{len(venue_id)}")

    volume_of = {ckey: booktitle for ckey, booktitle, _ in source.crossref}
    for key, title, year, journal in source.article:
        facts += [("Pub", (key, title, year)), ("PubVenue", (key, vid(journal)))]
    for key, title, year, ckey in source.inproc:
        booktitle = volume_of.get(ckey, ckey)
        facts += [("Pub", (key, title, year)), ("PartOf", (key, ckey)),
                  ("PubVenue", (key, vid(booktitle)))]
    for ckey in sorted({row[3] for row in source.inproc}):
        facts.append(("Volume", (ckey, vid(volume_of.get(ckey, ckey)))))
    facts += [("Venue", (ident, name)) for name, ident in venue_id.items()]
    person_id: Dict[str, str] = {}
    for key, position, name in source.author:
        ident = person_id.setdefault(name, f"a{len(person_id)}")
        facts.append(("Wrote", (key, position, ident)))
    facts += [("Person", (ident, name)) for name, ident in person_id.items()]
    return KnowledgeBase("kb_egd", KB_SIGMAS["kb_egd"], facts)


def closed_safe_kb(rng: random.Random, n_pubs: int, tag: str,
                   authors: Sequence[str]) -> KnowledgeBase:
    """A KB closed under the Example 8-shaped ``beta``: every
    ``(paper, lead author)`` pair already has its back link."""
    source = source_instance(rng, n_pubs, tag, authors)
    facts: List[Fact] = [("Wrote", (key, name, position))
                         for key, position, name in source.author]
    leads = sorted({name for _, position, name in source.author
                    if position == 1})
    facts += [("Lead", (name,)) for name in leads]
    lead_set = set(leads)
    pairs = sorted({(key, name) for key, _, name in source.author
                    if name in lead_set})
    facts += [("Wrote", (name, f"w{index}", key))
              for index, (key, name) in enumerate(pairs)]
    facts += [("Pub", (key, title, year))
              for key, title, year, _ in source.article + source.inproc]
    return KnowledgeBase("kb_safe", KB_SIGMAS["kb_safe"], facts)


def guarded_kb(size: int, tag: str, max_steps: int) -> KnowledgeBase:
    """A citation chain under ``Indexed(x) -> Cites(x,y), Indexed(y)``:
    the last paper cites nothing, so the chase diverges and hits its
    step cap."""
    papers = [f"{tag}/p{index}" for index in range(size)]
    facts: List[Fact] = [("Indexed", (paper,)) for paper in papers]
    facts += [("Cites", (papers[i], papers[i + 1])) for i in range(size - 1)]
    return KnowledgeBase("kb_guarded", KB_SIGMAS["kb_guarded"], facts,
                         max_steps=max_steps)


def evaluate(query_body: Sequence[Tuple[str, tuple]], head: Sequence[str],
             facts: Sequence[Fact]) -> List[tuple]:
    """Reference CQ evaluation: a left-to-right nested-loop join over
    hash-indexed relations.  Variables are strings starting with
    ``?``; other values are constants."""
    by_relation: Dict[str, List[tuple]] = {}
    for relation, args in facts:
        by_relation.setdefault(relation, []).append(args)
    bindings = [{}]
    for relation, terms in query_body:
        extended = []
        for binding in bindings:
            for row in by_relation.get(relation, ()):
                new = dict(binding)
                for term, value in zip(terms, row):
                    if isinstance(term, str) and term.startswith("?"):
                        if new.setdefault(term, value) != value:
                            break
                    elif term != value:
                        break
                else:
                    extended.append(new)
        bindings = extended
    return sorted({tuple(b[var] for var in head) for b in bindings},
                  key=repr)


def render_query(name: str, head: Sequence[str],
                 body: Sequence[Tuple[str, tuple]]) -> str:
    def term(value):
        if isinstance(value, str) and value.startswith("?"):
            return value[1:]
        return render_term(value)
    atoms = ", ".join(f"{relation}({', '.join(term(t) for t in terms)})"
                      for relation, terms in body)
    return f"{name}({', '.join(v[1:] for v in head)}) <- {atoms}"


def kb_queries(rng: random.Random, kb: KnowledgeBase,
               count: int) -> List[Tuple[str, list, list]]:
    """``count`` 2-4-atom join queries with constants drawn from
    ``kb``; returns ``(text, head, body)`` triples."""
    rel = {}
    for relation, args in kb.facts:
        rel.setdefault(relation, []).append(args)
    out = []
    for index in range(count):
        if kb.name == "kb_egd":
            shape = index % 4
            if shape == 0:
                venue = rng.choice(rel["Venue"])[1]
                head = ["?n"]
                body = [("Wrote", ("?k", "?i", "?a")), ("Person", ("?a", "?n")),
                        ("PubVenue", ("?k", "?v")), ("Venue", ("?v", venue))]
            elif shape == 1:
                venue = rng.choice(rel["Venue"])[1]
                head = ["?t", "?y"]
                body = [("Pub", ("?k", "?t", "?y")), ("PubVenue", ("?k", "?v")),
                        ("Venue", ("?v", venue))]
            elif shape == 2:
                name = rng.choice(rel["Person"])[1]
                head = ["?k2"]
                body = [("Person", ("?a", name)), ("Wrote", ("?k", "?i", "?a")),
                        ("Wrote", ("?k", "?j", "?b")),
                        ("Wrote", ("?k2", "?l", "?b"))]
            else:
                year = rng.choice(rel["Pub"])[2]
                head = ["?n"]
                body = [("Pub", ("?k", "?t", year)), ("Wrote", ("?k", 1, "?a")),
                        ("Person", ("?a", "?n"))]
        elif kb.name == "kb_safe":
            if index % 2 == 0:
                name = rng.choice(rel["Lead"])[0]
                head = ["?k"]
                body = [("Wrote", ("?k", name, "?i")), ("Lead", (name,))]
            else:
                name = rng.choice(rel["Lead"])[0]
                head = ["?m"]
                body = [("Wrote", ("?k", name, 1)), ("Wrote", ("?k", "?m", "?i")),
                        ("Wrote", (name, "?w", "?k"))]
        elif index % 3 == 0:
            head = ["?u"]
            body = [("Indexed", ("?u",)), ("Cites", ("?u", "?v"))]
        elif index % 3 == 1:
            head = ["?u", "?v"]
            body = [("Cites", ("?u", "?v")), ("Indexed", ("?v",))]
        else:
            head = ["?u"]
            body = [("Cites", ("?u", "?v")), ("Cites", ("?v", "?w")),
                    ("Indexed", ("?w",))]
        out.append((render_query(f"q{index}", head, body), head, body))
    return out


def expected_answer(kb: KnowledgeBase, head, body) -> Expected:
    """Closed KBs: zero chase steps, answers = plain evaluation.

    The guarded KB: the exact chase hits its step cap, and the answers
    come from the depth-bounded prefix, where the last paper starts a
    chain of fresh nulls.  The generated query shapes reach at most
    two citations deep, so any depth limit of two or more gives the
    constant answers computed here over a three-deep chain."""
    if kb.name == "kb_guarded":
        last = [args for relation, args in kb.facts
                if relation == "Indexed"][-1][0]
        chain = [last] + [("null", depth) for depth in range(1, 4)]
        prefix = list(kb.facts)
        prefix += [("Cites", (chain[i], chain[i + 1])) for i in range(3)]
        prefix += [("Indexed", (node,)) for node in chain[1:]]
        rows = [row for row in evaluate(body, head, prefix)
                if not any(isinstance(value, tuple) for value in row)]
        count, digest = answers_digest(rows)
        return Expected("exceeded_budget", kb.max_steps, kb.max_steps,
                        count, digest)
    count, digest = answers_digest(evaluate(body, head, kb.facts))
    return Expected("terminated", 0, 0, count, digest)


def query_spec(kb: KnowledgeBase, query_text: str, name: str,
               instance_text: str) -> dict:
    return {"kind": "query", "name": name, "constraints": kb.sigma,
            "instance": instance_text, "query": query_text,
            "strategy": "auto", "max_steps": kb.max_steps}


def check_reply(reply: dict, expected: Expected) -> List[str]:
    """Differences between a reply and its expected outcome (empty
    when it matches).  ``cached``, ``elapsed``, ``worker`` and ``job``
    are ignored; null labels never matter."""
    problems = []
    for field in ("status", "steps", "new_nulls"):
        if reply.get(field) != getattr(expected, field):
            problems.append(f"{field}: got {reply.get(field)!r}, "
                            f"expected {getattr(expected, field)!r}")
    if reply.get("answers") is not None:
        count, digest = reply_answers_digest(reply["answers"])
    elif reply.get("facts") is not None:
        count, digest = reply_facts_digest(reply["facts"])
    else:
        problems.append("reply carries neither facts nor answers")
        return problems
    if count != expected.count:
        problems.append(f"count: got {count}, expected {expected.count}")
    elif digest != expected.digest:
        problems.append("null-blind digest differs")
    return problems


# ----------------------------------------------------------------------
# The service's small batch families (shapes of repro.workloads.batch),
# rebuilt here so the benchmark's inputs and expectations never move
# with the program's own generators.
# ----------------------------------------------------------------------
FAMILY_SIGMAS = {
    "chain": "copy_0: R0(x, y) -> R1(x, y)\n"
             "copy_1: R1(x, y) -> R2(x, y)\n"
             "copy_2: R2(x, y) -> R3(x, y)",
    "safe": "beta: R(x1, x2, x3), S(x2) -> R(x2, y, x1)",
    "t3": "alpha: S(x2), E(x1, x2) -> E(y, x1)",
    "divergent": "alpha2: S(x) -> E(x, y), S(y)",
}
FAMILY_QUERIES = {"chain": "q(x, z) <- R3(x, y), R3(y, z)",
                  "safe": "q(x1, x3) <- R(x1, x2, x3), S(x3)",
                  "divergent": "q(u) <- S(u), E(u, v)"}


def _path(n: int, tag: str, relation: str) -> List[Fact]:
    return [(relation, (f"{tag}c{i}", f"{tag}c{i + 1}")) for i in range(n)]


def family_spec(family: str, n: int, tag: str, query: bool = False,
                max_steps: int = 300) -> Tuple[dict, Expected]:
    """A chase (or, with ``query``, certain-answer) spec of a batch
    family at size ``n``, with its expected outcome."""
    c = [f"{tag}c{i}" for i in range(n + 1)]
    answers: List[tuple] = []
    if family == "chain":
        facts = _path(n, tag, "R0")
        final = facts + [(f"R{k}", args) for k in (1, 2, 3)
                         for _, args in facts]
        status, steps, nulls = "terminated", 3 * n, 0
        answers = [(c[i], c[i + 2]) for i in range(n - 1)]
    elif family == "safe":
        facts = [("R", (c[i], c[i + 1], c[i])) for i in range(n)]
        facts += [("S", (c[i],)) for i in range(n)]
        final = facts + [("R", (c[i + 1], NULL, c[i])) for i in range(n - 1)]
        status, steps, nulls = "terminated", n - 1, n - 1
        answers = [(c[i], c[i]) for i in range(n)]
        answers += [(c[i + 1], c[i]) for i in range(n - 1)]
    elif family == "t3":
        facts = _path(n, tag, "E") + [("S", (x,)) for x in c]
        final = facts + [("E", (NULL, c[0])), ("E", (NULL, NULL))]
        status, steps, nulls = "terminated", 2, 2
    elif family == "divergent":
        facts = _path(n, tag, "E") + [("S", (x,)) for x in c]
        final = facts + [("E", (c[n], NULL))]
        final += [("E", (NULL, NULL))] * (max_steps - 1)
        final += [("S", (NULL,))] * max_steps
        status, steps, nulls = "exceeded_budget", max_steps, max_steps
        answers = [(x,) for x in c]
    else:
        raise ValueError(f"unknown family {family!r}")
    spec = {"kind": "chase", "name": f"{family}_{n}",
            "constraints": FAMILY_SIGMAS[family],
            "instance": render_facts(facts), "strategy": "auto",
            "max_steps": max_steps}
    if query:
        spec["kind"] = "query"
        spec["query"] = FAMILY_QUERIES[family]
        # Divergent queries hit the cap; their answers come from the
        # depth-bounded prefix, where every node has an edge.
        count, digest = answers_digest(answers)
        return spec, Expected(status, steps, nulls, count, digest)
    count, digest = facts_digest(final)
    return spec, Expected(status, steps, nulls, count, digest)
