"""Serving benchmark: XML bytes in, deliveries out, through DocumentBroker.

One client drives one ``DocumentBroker`` in a closed loop on one thread,
with the program's defaults (DFA backend, garbage collector untouched):
each document is submitted in 4 KB byte chunks only after the previous one
has been answered.  Inputs come from ``--seed`` (see :mod:`inputs`), and no
document is served twice.  Answers of the first submissions are checked
after the timed loop by the independent ElementTree checker
(:mod:`oracle`).

Usage, from the root of the repository::

    python3 servebench/run.py --workload section_route --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the traced
run instead and prints the per-layer metrics, writing its spans to
``.servebench-traces/``.  ``--self-test`` runs only the checker's
self-test.  The process first restarts itself once with string hashing
fixed (see ``HASH_SEED``).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import deque
from pathlib import Path

#: String hashing changes dict and set layouts, and with them the program's
#: speed: two processes on the same inputs measured up to ~10% apart.  The
#: benchmark fixes it, so runs differ only in their inputs and the machine.
HASH_SEED = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

from inputs import SUBSTREAM, VERDICT, WORKLOADS, Workload  # noqa: E402
import oracle  # noqa: E402
from repro.streaming import DocumentBroker  # noqa: E402
from repro.streaming.delivery import SubstreamDelivery  # noqa: E402
from repro.xmlmodel.parser import PushTokenizer  # noqa: E402
from repro.xpath.cache import QueryCache  # noqa: E402

#: The loop serves for ``--seconds`` in this many rounds of equal serving
#: time.  Throughput is the median over the rounds, so a few slow seconds
#: of a shared machine do not move it.
ROUNDS = 10
#: A set-up runs before every this-many rounds, so the set-ups spread over
#: the run like the rounds do; ``setup_s`` is their median.  Every round
#: for the cheap set-ups (about 0.15 s), every other round for the 10 000
#: subscriptions of ``wide_index`` (about 1.6 s each).
SETUP_EVERY = {"section_route": 1, "wide_index": 2, "item_extract": 1}
#: A round serves at least this many documents, so its 90th percentile
#: of latency lies between two of them.
ROUND_DOCUMENTS = 10
#: Documents generated at a time, with the loop's clock stopped.
BATCH = 8
#: Submissions checked by the oracle (the first ones of the timed loop).
CHECKED = {"section_route": 6, "wide_index": 4, "item_extract": 12}
#: Documents of the capture A/B in the traced run (substream only).
CAPTURE_DOCUMENTS = 4

TRACE_DIR = ROOT / ".servebench-traces"


class Client:
    """The serving side of one run: a broker, the live subscription set and
    the payloads its callback received for the current document."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.live = dict(workload.subscriptions)
        self.keys = list(self.live)
        self.payloads = []
        self.broker = None
        self._churn_rng = random.Random(f"churn/{workload.name}/{seed}")
        self._added = 0

    def build(self) -> DocumentBroker:
        """A broker compiled from the workload's subscription texts through
        a fresh ``QueryCache``."""
        subscriptions = {key: sub.xpath
                         for key, sub in self.workload.subscriptions.items()}
        delivery = self.workload.delivery
        if delivery == SUBSTREAM:
            append = self.payloads.append
            return DocumentBroker(
                subscriptions, cache=QueryCache(),
                on_payload=lambda key, node_id, data: append(
                    (key, node_id, data)))
        return DocumentBroker(subscriptions, cache=QueryCache(),
                              matches_only=delivery == VERDICT)

    def churn(self) -> int:
        """The unsubscribe/subscribe pairs due before a document: each
        removes a random live key and adds a fresh subscription of the same
        shape class under a new key.  Returns the calls that raised."""
        failed = 0
        for _ in range(self.workload.churn_per_doc):
            victim = self.keys.pop(self._churn_rng.randrange(len(self.keys)))
            shape = self.live.pop(victim).shape
            try:
                self.broker.unsubscribe(victim)
            except Exception:
                failed += 1
            key = f"c{self._added}"
            self._added += 1
            fresh = self.workload.fresh(shape)
            try:
                self.broker.subscribe(key, fresh.xpath)
            except Exception:
                failed += 1
                continue
            self.live[key] = fresh
            self.keys.append(key)
        return failed


def setup(client: Client, first_document, label: str, recorder=None):
    """Time one set-up: from the subscription texts to a broker that has
    served its first document.  The first set-up of a run makes the
    broker the loop serves with; later ones make a broker that is dropped
    and collected, untimed, before the loop goes on."""
    serving = client.broker is None
    gc.collect()
    if recorder is not None:
        recorder.install()
        recorder.doc = label
    start = time.perf_counter()
    broker = client.build()
    broker.submit(label, first_document)
    seconds = time.perf_counter() - start
    if recorder is not None:
        recorder.uninstall()
    if serving:
        client.broker = broker
    else:
        del broker
        gc.collect()
    client.payloads.clear()
    return seconds


def serve(client: Client, seconds: float, checked: int, recorder=None):
    """The timed closed loop, in ``ROUNDS`` rounds of equal serving time.
    Every document is new: document 0 is the set-up document, and the loop
    serves documents 1, 2, ... generated in batches while its clock is
    stopped.  Returns a dict of what it measured."""
    workload = client.workload
    first = workload.chunks(workload.document(0))
    setups = [setup(client, first, "setup0", recorder)]
    broker = client.broker
    payloads = client.payloads
    pending = deque()
    generated = 0
    rounds = []         # (documents, bytes, serving seconds, latencies)
    steps = []          # (traced, seconds of churn + submit)
    samples = []        # (document, live set, results, payloads)
    failed = attempted = served = 0
    totals = dict(events=0, checked=0, lookups=0, hits=0, states=0,
                  flushes=0)
    vacuum_before = broker.index.churn.vacuum_runs
    generating = serving_total = 0.0
    per_round = seconds / ROUNDS
    for round_number in range(ROUNDS):
        if round_number and round_number % SETUP_EVERY[workload.name] == 0:
            setups.append(setup(client, first, f"setup{len(setups)}",
                                recorder))
        began = time.perf_counter()
        paused = 0.0
        docs = size = 0
        round_latencies = []
        while True:
            if not pending:
                pause = time.perf_counter()
                for _ in range(BATCH):
                    generated += 1
                    data = workload.document(generated)
                    pending.append((data, workload.chunks(data)))
                paused += time.perf_counter() - pause
            data, chunks = pending.popleft()
            traced = recorder is not None and served % 2 == 0
            if traced:
                recorder.install()
                recorder.doc = served
            step_start = time.perf_counter()
            attempted += workload.churn_per_doc * 2
            failed += client.churn()
            payloads.clear()
            submit_start = time.perf_counter()
            try:
                result = broker.submit(served, chunks)
            except Exception:
                result = None
            end = time.perf_counter()
            if traced:
                recorder.uninstall()
            attempted += 1
            round_latencies.append(end - submit_start)
            steps.append((traced, end - step_start))
            if result is None:
                failed += 1
            else:
                stats = result.stats
                totals["events"] += stats.events
                totals["checked"] += stats.expectations_checked
                totals["lookups"] += stats.transition_cache_lookups
                totals["hits"] += stats.transition_cache_hits
                totals["states"] += stats.dfa_states_materialized
                totals["flushes"] += stats.transition_cache_flushed > 0
                if served < checked:
                    samples.append((data, dict(client.live), result.results,
                                    list(payloads)))
            served += 1
            docs += 1
            size += len(data)
            serving = end - began - paused
            if serving >= per_round and docs >= ROUND_DOCUMENTS:
                break
        rounds.append((docs, size, serving, round_latencies))
        generating += paused
        serving_total += serving
    return dict(setups=setups, served=served,
                rounds=rounds, steps=steps, samples=samples,
                attempted=attempted, failed=failed, totals=totals,
                vacuum_runs=broker.index.churn.vacuum_runs - vacuum_before,
                serving=serving_total, generating=generating,
                first_documents=[workload.document(number) for number in
                                 range(1, 1 + CAPTURE_DOCUMENTS)])


def check(workload: Workload, samples):
    """Oracle-check the sampled submissions.  Returns (failed, problems)."""
    failed = 0
    problems = []
    for position, (data, live, results, payloads) in enumerate(samples):
        try:
            found = oracle.check_document(data, live, workload.delivery,
                                          results, payloads)
        except Exception as error:  # the checker itself must not pass silently
            found = [f"checker raised {error!r}"]
        if found:
            failed += 1
            problems.extend(f"document {position}: {p}" for p in found[:5])
    return failed, problems


def end_to_end(loop, peak_rss_mb):
    """Throughput and latency are taken per round and reported as the
    median over the rounds, like set-up time over the set-ups."""
    rounds = loop["rounds"]
    docs = [count / serving for count, _, serving, _ in rounds]
    megabytes = [size / serving / 1e6 for _, size, serving, _ in rounds]
    p50 = [statistics.median(latencies) * 1e3
           for _, _, _, latencies in rounds]
    p90 = [statistics.quantiles(latencies, n=10)[8] * 1e3
           for _, _, _, latencies in rounds]
    return {
        "docs_per_s": (statistics.median(docs), "docs/s"),
        "mb_per_s": (statistics.median(megabytes), "MB/s"),
        "latency_p50_ms": (statistics.median(p50), "ms"),
        "latency_p90_ms": (statistics.median(p90), "ms"),
        "setup_s": (statistics.median(loop["setups"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def capture_ms_per_doc(client: Client, documents, repeats=3):
    """Substream minus node-id match time (feed + results) on the same
    events, on the run's index: the median over documents and repeats of
    the paired difference.  Both matchers serve the documents once untimed
    first, so neither meets a colder automaton, and the pair's order
    alternates.  Each side starts on a freshly collected heap: a full
    collection (about one every other document) landing in one side of a
    pair once set the figure's sign.  The collector's own time is reported
    by ``runtime.gc_*``."""
    if client.workload.delivery != SUBSTREAM:
        return 0.0
    streams = []
    for data in documents:
        tokenizer = PushTokenizer()
        streams.append(tokenizer.feed(data) + tokenizer.close())
    index = client.broker.index
    substream = index.matcher(delivery=SubstreamDelivery(
        on_payload=lambda key, node_id, data: None))
    node_ids = index.matcher()

    def seconds(matcher, events):
        gc.collect()
        start = time.perf_counter()
        for event in events:
            matcher.feed(event)
        matcher.results()
        spent = time.perf_counter() - start
        matcher.reset()
        return spent

    for events in streams:
        seconds(substream, events)
        seconds(node_ids, events)
    differences = []
    for repeat in range(repeats):
        for number, events in enumerate(streams):
            if (repeat + number) % 2:
                ids_first = seconds(node_ids, events)
                differences.append(seconds(substream, events) - ids_first)
            else:
                first = seconds(substream, events)
                differences.append(first - seconds(node_ids, events))
    return statistics.median(differences) * 1e3


def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed)
    problems = [f"checker self-test: {p}" for p in oracle.self_test()]
    client = Client(workload, args.seed)
    recorder = None
    if args.trace:
        from spans import Recorder
        recorder = Recorder()
    loop = serve(client, args.seconds, CHECKED[workload.name], recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases = {"setup": sum(loop["setups"]), "serving": loop["serving"],
              "generating": loop["generating"]}
    if recorder is None:
        metrics = end_to_end(loop, peak_rss_mb)
    else:
        from layers import per_layer
        capture_start = time.perf_counter()
        capture = capture_ms_per_doc(client, loop["first_documents"])
        phases["capture"] = time.perf_counter() - capture_start
        metrics = per_layer(recorder.spans, loop, capture)
        TRACE_DIR.mkdir(exist_ok=True)
        recorder.write(TRACE_DIR / f"{workload.name}-seed{args.seed}.json")
    check_start = time.perf_counter()
    wrong, found = check(workload, loop["samples"])
    problems.extend(found)
    phases["check"] = time.perf_counter() - check_start
    return {
        "correct": not problems,
        "attempted": loop["attempted"],
        "failed": loop["failed"] + wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "problems": problems,
        "served": loop["served"],
        "phases": phases,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run only the checker's self-test")
    args = parser.parse_args(argv)
    if args.self_test:
        failures = oracle.self_test()
        for failure in failures:
            print(f"FAIL {failure}")
        print("checker self-test:", "FAILED" if failures else
              "rejects a flipped verdict, a missing node id and a "
              "corrupted payload")
        return 1 if failures else 0
    if args.workload is None:
        parser.error("--workload is required")
    report = run(args)
    for problem in report.pop("problems")[:20]:
        print(f"WRONG {problem}")
    served = report.pop("served")
    phases = ", ".join(f"{name} {seconds:.1f} s"
                       for name, seconds in report.pop("phases").items())
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{served} documents served ({phases})")
    for name, metric in report["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Restart this process (same pid, no child) with fixed hashing.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
