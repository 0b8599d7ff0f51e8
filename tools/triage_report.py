#!/usr/bin/env python3
"""Renders treesim crash-triage dumps and checks observability joins.

Usage:
  triage_report.py DUMP [DUMP...]
      Parse each triage dump (written by the crash handler in
      src/util/triage.cc) and print a human-readable summary. Exits
      non-zero when a dump is missing its header or END marker, so CI can
      assert that a crash produced a complete, parseable file.

  triage_report.py --check-join TRACE_JSON QLOG_JSONL METRICS_PROM
      Assert that at least one query id appears in all three observability
      outputs of a single run: the chrome://tracing span args, the
      structured query log, and a Prometheus histogram exemplar. This is
      the end-to-end proof that query-context propagation makes the
      streams joinable.
"""

import json
import re
import sys


class DumpError(Exception):
    pass


def parse_dump(path):
    """Parses one triage dump into a dict; raises DumpError when malformed."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "TREESIM_TRIAGE 1":
        raise DumpError(f"{path}: missing 'TREESIM_TRIAGE 1' header")
    if "END" not in lines:
        raise DumpError(f"{path}: missing END marker (dump truncated?)")

    dump = {
        "path": path,
        "header": {},
        "metrics": [],
        "flight_records": [],
        "trace_spans": [],
    }
    section = None
    for line in lines[1:]:
        if line == "END":
            break
        if line.startswith("SECTION "):
            section = line.split(" ", 1)[1]
            continue
        if section is None:
            key, _, value = line.partition(" ")
            dump["header"][key] = value
        elif section == "metrics":
            parts = line.split()
            if len(parts) >= 3:
                dump["metrics"].append(
                    {"kind": parts[0], "name": parts[1], "rest": parts[2:]})
        elif section == "flight_recorder":
            if line.startswith("record"):
                dump["flight_records"].append(parse_kv(line[len("record"):]))
        elif section == "trace_tail":
            if line.startswith("span"):
                dump["trace_spans"].append(parse_kv(line[len("span"):]))
    return dump


def parse_kv(text):
    """Parses ' k=v k=v ... name=rest' lines; name= swallows the tail."""
    out = {}
    text = text.strip()
    while text:
        key, eq, rest = text.partition("=")
        if not eq:
            break
        if key == "name":
            # The name field is last and may contain anything but newline.
            out[key] = rest
            break
        value, _, text = rest.partition(" ")
        out[key] = value
    return out


def render(dump):
    h = dump["header"]
    print(f"== triage dump: {dump['path']} ==")
    print(f"reason:         {h.get('reason', '?')}")
    if "fatal_message" in h:
        print(f"fatal message:  {h['fatal_message']}")
    print(f"pid:            {h.get('pid', '?')}")
    print(f"timestamp:      {h.get('ts_unix_micros', '?')} (unix micros)")
    dirty = " (dirty)" if h.get("build_dirty") == "1" else ""
    print(f"build:          {h.get('build_sha', '?')}{dirty} "
          f"{h.get('build_type', '?')} {h.get('compiler', '?')}")
    print(f"metrics build:  "
          f"{'on' if h.get('metrics_enabled') == '1' else 'off'}")
    print(f"metrics: {len(dump['metrics'])}")
    for m in dump["metrics"]:
        print(f"  {m['kind']} {m['name']} {' '.join(m['rest'])}")
    print(f"flight records: {len(dump['flight_records'])}")
    for r in dump["flight_records"]:
        print("  " + " ".join(f"{k}={v}" for k, v in r.items()))
    print(f"trace spans: {len(dump['trace_spans'])}")
    for s in dump["trace_spans"][:20]:
        print(f"  thread={s.get('thread', '?')} "
              f"query_id={s.get('query_id', '?')} "
              f"dur_ns={s.get('dur_ns', '?')} name={s.get('name', '?')}")
    if len(dump["trace_spans"]) > 20:
        print(f"  ... {len(dump['trace_spans']) - 20} more")


def trace_query_ids(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    ids = set()
    for e in events:
        args = e.get("args") or {}
        qid = args.get("query_id")
        if isinstance(qid, int) and qid > 0:
            ids.add(qid)
    return ids


def qlog_query_ids(path):
    ids = set()
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            qid = rec.get("query_id")
            if isinstance(qid, int) and qid > 0:
                ids.add(qid)
    return ids


EXEMPLAR_RE = re.compile(r'#\s*\{query_id="(\d+)"\}')


def exemplar_query_ids(path):
    ids = set()
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            m = EXEMPLAR_RE.search(line)
            if m:
                ids.add(int(m.group(1)))
    return ids


def check_join(trace_path, qlog_path, metrics_path):
    trace_ids = trace_query_ids(trace_path)
    qlog_ids = qlog_query_ids(qlog_path)
    exemplar_ids = exemplar_query_ids(metrics_path)
    joined = trace_ids & qlog_ids & exemplar_ids
    print(f"trace query ids:    {sorted(trace_ids)}")
    print(f"query-log ids:      {sorted(qlog_ids)}")
    print(f"exemplar ids:       {sorted(exemplar_ids)}")
    print(f"joinable ids:       {sorted(joined)}")
    if not joined:
        print("FAIL: no query id appears in all three outputs",
              file=sys.stderr)
        return 1
    print("OK: observability streams are joinable")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--check-join":
        if len(argv) != 5:
            print(__doc__, file=sys.stderr)
            return 2
        return check_join(argv[2], argv[3], argv[4])
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    code = 0
    for path in argv[1:]:
        try:
            render(parse_dump(path))
        except (DumpError, OSError) as err:
            print(f"FAIL: {err}", file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
