"""The ``agentdag`` command under outside-in tracing, for traced corpus runs.

Usage: ``python3 perfbench/cli_traced.py SPANS.jsonl ARGS...`` runs
``agentdag ARGS...`` and writes its spans, including ``cli.import`` and
``cli.main``, to SPANS.jsonl with absolute monotonic times.
"""

import json
import sys

import spans



def import_agentdag():
    from agentdag import cli, corpus, jsonio

    return cli, corpus, jsonio


rec = spans.Recorder()
cli, corpus, jsonio = rec.span("cli.import", import_agentdag)()
rec.rebind(cli, {"read_corpus": "corpus.read", "filter_corpus": "corpus.filter",
                 "write_corpus": "corpus.write"})
rec.rebind(corpus, {"parse_topology": "dsl.parse_topology", "validate_logic": "dsl.validate_logic",
                    "canonicalize": "dsl.canonicalize", "decode_topology": "graph.decode",
                    "density_scores": "graph.density"})
# read_jsonl is a generator: consume it inside its span, or the span is empty.
read_jsonl = corpus.read_jsonl
corpus.read_jsonl = rec.span("jsonio.read_jsonl", lambda path: iter(list(read_jsonl(path))))
jsonio.dumps = rec.span("jsonio.dumps", jsonio.dumps, size=lambda s: len(s.encode("utf-8")))
code = rec.span("cli.main", cli.main)(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    for s in rec.spans:
        handle.write(json.dumps(s) + "\n")
sys.exit(code)
