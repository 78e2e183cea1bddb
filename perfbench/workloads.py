"""The benchmark's three request sequences, built from a seed.

Each builder returns a :class:`Plan`: warm-up requests (run during
set-up, before any timed clock starts) and the timed sequence, every
request paired with its expected outcome.  ``run.py`` sends the timed
sequence ``ROUNDS[workload]`` times, each round from a fresh set-up (a
fresh interpreter in process, a fresh server for the gateway), and
reports medians over the rounds.  The sequence holds
``RATES[workload] * seconds / ROUNDS[workload]`` requests (at least
``MIN_ROUND``), so a run lasts about ``seconds`` on a 2-CPU machine
while the sequence itself stays fixed: a run never stops on a timer.

Sizes are quantiles, not draws (:func:`bibgen.pareto_quantiles`):
every seed runs the same multiset of sizes in a different order with
different content, which keeps a run's total work, and its tail,
steady across seeds.

Where each parameter comes from -- a cited source or a stated
assumption -- is recorded next to its value in ``manifest.json``
(``parameters``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import bibgen as B

#: Timed requests per second of ``--seconds``.  Answer sequences stay
#: below 256 fresh specs, so their repeats always find the result
#: cache.
RATES = {"exchange": 10, "answer": 9, "gateway": 50}
#: Rounds per run: how many times the timed sequence is sent, each
#: time from a fresh set-up.
ROUNDS = {"exchange": 5, "answer": 3, "gateway": 5}
#: Requests per sequence at least: the tail is then p90 with at least
#: ten samples beyond it.
MIN_ROUND = 100

#: Exchange: publications per source instance ~ Pareto(1.2) on
#: [12, 400]; half the requests use the EGD mapping.
EXCHANGE_SIZES = (1.2, 12, 400)
EXCHANGE_MIX = (("wa_egd", 2), ("safe", 1), ("stratified", 1))

#: Answer: the knowledge bases (name, facts -- papers for the guarded
#: one) and their percentage of fresh queries; a quarter of the
#: requests repeat one of at most ``ANSWER_REPEAT_POOL`` earlier specs
#: (fits the 256-entry cache).  With these shares the
#: median request is a fresh kb_egd query and the p90 a fresh kb_safe
#: one, so neither percentile sits in a gap between the latency modes
#: of the kinds.
ANSWER_KBS = (("kb_egd", 800, 30), ("kb_egd", 850, 25), ("kb_safe", 850, 30),
              ("kb_guarded", 60, 15))
ANSWER_REPEAT_SHARE = 1 / 4
ANSWER_REPEAT_POOL = 48
GUARDED_STEP_CAP = 300

#: Gateway: distinct small specs (more than the 256-entry result
#: cache holds), Zipf-skewed repeats over them, a few large repeated
#: specs and a small share of step-capped divergent jobs.  The slow
#: kinds stay below 5% of the sequence (with the requests queued behind
#: them), so the p90 falls among the ordinary cache misses rather than
#: on the edge of the slow modes.
GATEWAY_POPULATION = 640
#: Repeat popularity: request streams at web caches are Zipf-like with
#: exponents 0.64-0.83 (Breslau et al., INFOCOM 1999).
GATEWAY_SKEW = 0.8
GATEWAY_LARGE = 2
GATEWAY_LARGE_SHARE = 0.015
GATEWAY_DIVERGENT_SHARE = 0.015
GATEWAY_SPAWN_JOBS = 8
#: The server's result cache holds this many entries; set-up fills it
#: with the most popular specs, so the timed sequence starts near
#: steady state.
RESULT_CACHE = 256


@dataclass
class Request:
    line: str                 # the spec, serialized once
    expected: B.Expected
    label: str                # mapping / KB / family, for reports


@dataclass
class Plan:
    warmup: List[Request]
    timed: List[Request]
    describe: Dict = field(default_factory=dict)
    #: Gateway only: sent after the warm-up to start the pool workers,
    #: and then to fill the result cache.
    spawn: List[Request] = field(default_factory=list)
    fill: List[Request] = field(default_factory=list)


def _request(spec: dict, expected: B.Expected, label: str) -> Request:
    return Request(json.dumps(spec, sort_keys=True), expected, label)


def sequence_size(workload: str, seconds: int) -> int:
    return max(MIN_ROUND, RATES[workload] * seconds // ROUNDS[workload])


def exchange(seed: int, seconds: int) -> Plan:
    """One closed-loop caller materializing distinct DBLP-shaped
    source instances under the three mappings."""
    size = sequence_size("exchange", seconds)
    authors = B.author_pool(seed, 2500)
    weight_sum = sum(weight for _, weight in EXCHANGE_MIX)
    slots: List[Tuple[str, int]] = []
    for mapping, weight in EXCHANGE_MIX:
        share = size * weight // weight_sum
        slots += [(mapping, pubs) for pubs
                  in B.pareto_quantiles(share, *EXCHANGE_SIZES)]
    # A slot's instance comes from an RNG keyed on the slot, not the
    # seed: the seed changes the order, the names and the keys, not the
    # instances' shapes, so the amount of work -- and its tail -- is the
    # same for every seed (with shapes drawn per seed, the p90 latency
    # of ten seeds spread 0.2 around its median with unchanged code).
    order = list(range(len(slots)))
    B.rng_for("exchange-order", seed).shuffle(order)
    requests = []
    for index, slot in enumerate(order):
        mapping, pubs = slots[slot]
        source = B.source_instance(B.rng_for("exchange", slot),
                                   pubs, f"s{seed}x{index}", authors)
        requests.append(_request(B.exchange_spec(source, mapping, f"x{index}"),
                                 B.expected_exchange(source, mapping),
                                 mapping))
    warmup = []
    for index, (mapping, _) in enumerate(EXCHANGE_MIX):
        source = B.source_instance(B.rng_for("exchange-warm", index),
                                   10, f"s{seed}w{index}", authors)
        warmup.append(_request(B.exchange_spec(source, mapping, f"w{index}"),
                               B.expected_exchange(source, mapping),
                               mapping))
    sizes = sorted(pubs for _, pubs in slots) or [0]
    return Plan(warmup, requests, describe={
        "rounds": ROUNDS["exchange"], "requests": len(requests),
        "publications": sum(sizes),
        "publications_p50": sizes[len(sizes) // 2],
        "publications_max": sizes[-1]})


def _kb_with_facts(build, facts: int, seed: int, index: int,
                   authors) -> B.KnowledgeBase:
    """The smallest KB ``build`` makes with at least ``facts`` facts.

    Source instances grow by prefix (publication ``i`` depends only on
    the RNG draws before it), so a binary search over the publication
    count pins the size in facts, whatever the seed."""
    def make(pubs):
        return build(B.rng_for("kb", seed, index), pubs,
                     f"s{seed}kb{index}", authors)
    low, high = 1, facts
    while low < high:
        middle = (low + high) // 2
        if len(make(middle).facts) >= facts:
            high = middle
        else:
            low = middle + 1
    return make(low)


def _kbs(seed: int, authors) -> List[B.KnowledgeBase]:
    builders = {"kb_egd": B.closed_egd_kb, "kb_safe": B.closed_safe_kb}
    kbs = []
    for index, (name, size, _) in enumerate(ANSWER_KBS):
        if name in builders:
            kbs.append(_kb_with_facts(builders[name], size, seed, index,
                                      authors))
        else:
            kbs.append(B.guarded_kb(size, f"s{seed}kb{index}",
                                    GUARDED_STEP_CAP))
    return kbs


def _answer_queries(seed: int, size: int, kbs, texts) -> List[Request]:
    """Certain-answer queries: fresh queries over the KBs in fixed
    shares, a quarter of exact repeats of earlier specs."""
    rng = B.rng_for("answer", seed)
    repeats = int(size * ANSWER_REPEAT_SHARE)
    fresh = size - repeats
    weights = [weight for _, _, weight in ANSWER_KBS]
    choices = []
    for index, weight in enumerate(weights):
        choices += [index] * round(fresh * weight / sum(weights))
    choices = (choices + [0] * fresh)[:fresh]
    rng.shuffle(choices)
    queries = {index: B.kb_queries(B.rng_for("queries", seed, index),
                                   kb, choices.count(index))
               for index, kb in enumerate(kbs)}
    used = {index: 0 for index in queries}
    fresh_requests = []
    for position, index in enumerate(choices):
        text, head, body = queries[index][used[index]]
        used[index] += 1
        kb = kbs[index]
        fresh_requests.append(_request(
            B.query_spec(kb, text, f"a{position}", texts[index]),
            B.expected_answer(kb, head, body), kb.name))
    # Repeats re-send one of the first ANSWER_REPEAT_POOL specs (each
    # round sends the sequence in its own order, see run.py).
    return fresh_requests + [
        fresh_requests[rng.randrange(min(ANSWER_REPEAT_POOL, fresh))]
        for _ in range(repeats)]


def answer(seed: int, seconds: int) -> Plan:
    """One closed-loop caller asking certain-answer queries over a few
    knowledge bases; a quarter of the requests are exact repeats."""
    size = sequence_size("answer", seconds)
    authors = B.author_pool(seed, 2500)
    kbs = _kbs(seed, authors)
    texts = [B.render_facts(kb.facts) for kb in kbs]
    requests = _answer_queries(seed, size, kbs, texts)
    warmup = []
    for index, kb in enumerate(kbs):
        text, head, body = B.kb_queries(B.rng_for("warm-queries", seed, index),
                                        kb, 1)[0]
        warmup.append(_request(
            B.query_spec(kb, text, f"w{index}", texts[index]),
            B.expected_answer(kb, head, body), kb.name))
    return Plan(warmup, requests, describe={
        "rounds": ROUNDS["answer"], "requests": len(requests),
        "repeats": int(size * ANSWER_REPEAT_SHARE),
        "kb_facts": [len(kb.facts) for kb in kbs]})


def _gateway_population(seed: int, authors) -> List[Request]:
    """Small specs: batch families, small bibliographic exchanges and
    small knowledge-base queries.  As on ``exchange``, the RNGs are
    keyed on no seed: ``seed`` changes the names (``authors``) and the
    keys, not the specs' shapes."""
    shape = B.rng_for("gateway-population")
    kbs = [B.closed_egd_kb(B.rng_for("gkb", 0), 12, f"s{seed}g0",
                           authors),
           B.closed_safe_kb(B.rng_for("gkb", 1), 12, f"s{seed}g1",
                            authors)]
    kb_texts = [B.render_facts(kb.facts) for kb in kbs]
    kb_queries = [B.kb_queries(B.rng_for("gq", i), kb, 200)
                  for i, kb in enumerate(kbs)]
    out: List[Request] = []
    for index in range(GATEWAY_POPULATION):
        kind = index % 20
        tag = f"s{seed}p{index}"
        if kind < 8:
            family = ("chain", "safe", "t3")[kind % 3]
            spec, expected = B.family_spec(family, shape.randint(3, 14), tag)
            out.append(_request(spec, expected, family))
        elif kind < 11:
            family = ("chain", "safe")[kind % 2]
            spec, expected = B.family_spec(family, shape.randint(3, 14),
                                           tag, query=True)
            out.append(_request(spec, expected, family + "_query"))
        elif kind < 17:
            mapping = list(B.MAPPINGS)[kind % 3]
            source = B.source_instance(B.rng_for("gsrc", index),
                                       shape.randint(3, 10), tag, authors)
            out.append(_request(
                B.exchange_spec(source, mapping, f"p{index}"),
                B.expected_exchange(source, mapping), mapping))
        else:
            which = kind % 2
            text, head, body = kb_queries[which][index // 20]
            out.append(_request(
                B.query_spec(kbs[which], text, f"p{index}",
                             kb_texts[which]),
                B.expected_answer(kbs[which], head, body), kbs[which].name))
    return out


def gateway(seed: int, seconds: int) -> Plan:
    """Small jobs over HTTP: Zipf-skewed repeats over a population
    larger than the result cache, a few large repeated specs and a
    small share of step-capped divergent jobs."""
    size = sequence_size("gateway", seconds)
    authors = B.author_pool(seed, 2500)
    population = _gateway_population(seed, authors)
    # Popularity ranks, like kinds and sizes, are the same for every
    # seed, and so is the multiset of ranks the timed sequence draws.
    B.rng_for("gateway-ranks").shuffle(population)
    large = []
    for index in range(GATEWAY_LARGE):
        kb = B.closed_egd_kb(B.rng_for("glarge", index), 300,
                             f"s{seed}L{index}", authors)
        text, head, body = B.kb_queries(B.rng_for("glq", index),
                                        kb, 1)[0]
        large.append(_request(
            B.query_spec(kb, text, f"large{index}", B.render_facts(kb.facts)),
            B.expected_answer(kb, head, body), "large"))
    n_large = round(size * GATEWAY_LARGE_SHARE)
    n_divergent = round(size * GATEWAY_DIVERGENT_SHARE)
    timed = B.zipf_quantiles(population, GATEWAY_SKEW,
                             size - n_large - n_divergent)
    B.rng_for("gateway", seed).shuffle(timed)
    # The slow requests, alternately large and divergent, go at evenly
    # spaced places: the requests queued behind them land in the tail,
    # and with random places their number moved the p90 from seed to
    # seed.
    slow = []
    for index in range(max(n_large, n_divergent)):
        if index < n_large:
            slow.append(large[index % GATEWAY_LARGE])
        if index < n_divergent:
            spec, expected = B.family_spec("divergent", 3 + index % 6,
                                           f"s{seed}d{index}",
                                           query=bool(index % 2))
            slow.append(_request(spec, expected, "divergent"))
    for number, request in enumerate(slow):
        timed.insert((2 * number + 1) * size // (2 * len(slow)), request)
    # Warm-up, one request at a time: every constraint set once, so
    # each is analyzed before any worker process exists.  Then a burst
    # of small divergent jobs on more connections: jobs queue behind
    # each other, the runner's next micro-batch holds two and both
    # pool workers start -- forked while the event loop only parses
    # small specs.  Then the cache fill: the most popular specs, least
    # popular first, and the large specs, so the timed sequence
    # re-sends cached ones.
    warmup = []
    labels = set()
    for request in _gateway_population(seed + 10_000, authors):
        if request.label not in labels:
            labels.add(request.label)
            warmup.append(request)

    def divergent(index):
        spec, expected = B.family_spec("divergent", 3, f"s{seed}wd{index}",
                                       query=bool(index % 2))
        return _request(spec, expected, "divergent")
    warmup.append(divergent(0))
    spawn = [divergent(index) for index in range(1, GATEWAY_SPAWN_JOBS + 1)]
    fill = population[RESULT_CACHE - GATEWAY_LARGE - 1::-1] + large
    distinct = len({request.line for request in timed})
    return Plan(warmup, timed, spawn=spawn, fill=fill, describe={
        "rounds": ROUNDS["gateway"], "requests": len(timed),
        "distinct_specs": distinct, "population": GATEWAY_POPULATION,
        "large": n_large, "divergent": n_divergent})


BUILDERS = {"exchange": exchange, "answer": answer, "gateway": gateway}
