#!/usr/bin/env python3
"""sncheck — project-invariant linter for the sncube tree.

Enforces invariants no off-the-shelf checker knows about, as compile-time
(well, lint-time) facts instead of code-review folklore. Rules:

  wall-clock       src/core, src/io, src/net, src/obs, src/refresh must not
                   read host time (system_clock/steady_clock/time()/...).
                   Simulated time flows only through the BSP clock
                   (Comm::Charge*) and DiskModel; a host-clock read in a
                   simulation-charged path silently corrupts every figure, a
                   host-clock read in src/obs would make traces
                   nondeterministic (golden-file tested), and a host-clock
                   read in src/refresh (e.g. a timed retry loop) would make
                   refresh chaos trials unreplayable. (src/serve measures real serving latency and is
                   exempt — serve-side traces get wall time through
                   serve/wall_clock.h; src/common/timer.h is the one
                   sanctioned wall-clock wrapper for benches.)

  raw-wire-bytes   src/net and src/serve must not memcpy/reinterpret_cast
                   raw buffer bytes outside net/wire.h. Wire buffers can be
                   truncated or hostile; all decoding goes through the
                   bounds-checked WireReader / serialize.h readers that
                   throw SncubeCorruptionError instead of reading OOB.

  typed-throw      Library code (src/**) throws only the sncube failure
                   taxonomy (Sncube*Error, ClusterAbortedError,
                   InjectedFaultError) or rethrows (`throw;`). Callers
                   catch SncubeError at API boundaries; an untyped throw
                   escapes every handler and aborts the process.

  nondeterminism   src/** must not use ambient nondeterminism
                   (std::rand/srand/random_device/mt19937/...). All
                   randomness derives from common/rng.h seeded streams so
                   runs, tests, and fault plans replay bit-for-bit.

  raw-thread       src/core, src/io, src/exec must not spawn raw threads
                   (std::thread / std::jthread / std::async). Intra-rank
                   parallelism goes through the exec::TaskPool runtime so
                   span accounting, determinism (stable chunk boundaries),
                   and the capability-annotated locking discipline all hold;
                   a raw thread bypasses every one of them. The pool
                   implementation itself (src/exec/task_pool.cc) is the one
                   sanctioned home of real threads.

  raw-sleep        src/serve must not sleep directly (sleep_for /
                   sleep_until / usleep / nanosleep). Every policy wait —
                   retry backoff, breaker cooldown, hedge delay — flows
                   through the ServeClock interface so a ManualServeClock
                   makes the whole failure-policy stack deterministic; an
                   ad-hoc sleep is invisible to the test clock and turns
                   pinned breaker/retry transitions back into wall-clock
                   races. The production clock implementation
                   (serve/retry_policy.cc) is the one sanctioned sleep site.

  raw-file-write   src/core, src/io, src/net, src/refresh, src/seqcube and
                   the command-line sources directly in tools/ (tools/*.cc,
                   not the lint fixtures below it) must not open files for
                   writing directly (std::ofstream / fopen / tmpfile).
                   Durable bytes in those layers go through the checksummed
                   io layer
                   (io/checked_file.h) so every artifact
                   carries a CRC32C seal and every write passes the
                   DiskModel's fault-injection sites; a raw write silently
                   bypasses both. Reads (std::ifstream) are fine — they
                   can't create unsealed artifacts. A CLI file that is not
                   a cube artifact (a CSV, a plan list) carries an allow
                   saying so.

Suppression: a finding may be allowed with an inline justification on the
same line or the line above:

    // sncheck:allow(wall-clock): progress UI only, never charged to sim

The justification after the colon is mandatory; a bare allow is itself a
finding (rule `bad-suppression`). Unknown rule names are findings too.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# Rule table. `paths` are path-prefix filters relative to the repo root (POSIX
# separators); `top_level` names directories whose files directly inside (not
# in subdirectories) the rule covers too; `exempt` names exact relative paths
# the rule never applies to.
# `pattern` is matched against comment- and string-stripped code lines.

RULES = [
    {
        "id": "wall-clock",
        "paths": ("src/core/", "src/io/", "src/net/", "src/obs/",
                  "src/refresh/"),
        "exempt": (),
        "pattern": re.compile(
            r"system_clock|steady_clock|high_resolution_clock"
            r"|\bclock_gettime\b|\bgettimeofday\b|\bclock\s*\("
            r"|std::time\b|[^\w.:]time\s*\(\s*(?:NULL|nullptr|0|&)"
        ),
        "message": "host clock in a simulation-charged path; simulated time "
                   "must flow through the BSP clock / DiskModel",
    },
    {
        "id": "raw-wire-bytes",
        "paths": ("src/net/", "src/serve/"),
        "exempt": ("src/net/wire.h",),
        "pattern": re.compile(r"\bmemcpy\s*\(|\breinterpret_cast\s*<"),
        "message": "raw byte reinterpretation outside net/wire.h; use the "
                   "bounds-checked WireReader/serialize readers",
    },
    {
        "id": "typed-throw",
        "paths": ("src/",),
        "exempt": (),
        # `throw <something>` where <something> is neither empty (rethrow)
        # nor one of the sncube failure types (optionally namespace-
        # qualified). `[^;\s]` catches non-identifier throws too (throw 42).
        "pattern": re.compile(
            r"\bthrow\s+(?!(?:::)?(?:sncube::)?"
            r"(?:Sncube|Cluster|InjectedFault)\w*)[^;\s]"
        ),
        "message": "library code must throw the sncube failure taxonomy "
                   "(Sncube*Error / ClusterAbortedError / InjectedFaultError) "
                   "or rethrow with `throw;`",
    },
    {
        "id": "nondeterminism",
        "paths": ("src/",),
        "exempt": (),
        "pattern": re.compile(
            r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bmt19937"
            r"|\brand\s*\(\s*\)"
        ),
        "message": "ambient nondeterminism in library code; use the seeded "
                   "streams in common/rng.h so runs replay bit-for-bit",
    },
    {
        "id": "raw-thread",
        "paths": ("src/core/", "src/io/", "src/exec/"),
        # The pool implementation is where the real threads are supposed to
        # live — all other intra-rank parallelism rides on exec::TaskPool.
        # (The header declares the worker vector; the .cc spawns them.)
        "exempt": ("src/exec/task_pool.cc", "src/exec/task_pool.h"),
        "pattern": re.compile(
            r"\bstd::thread\b|\bstd::jthread\b|\bstd::async\b"
        ),
        "message": "raw thread outside the exec runtime; use exec::TaskPool "
                   "(ParallelFor / TaskGroup) so span charging, determinism, "
                   "and the locking discipline hold",
    },
    {
        "id": "raw-sleep",
        "paths": ("src/serve/",),
        # The production ServeClock is where the one real sleep lives — all
        # other waiting goes through ServeClock::SleepMicros so the manual
        # test clock sees it.
        "exempt": ("src/serve/retry_policy.cc",),
        "pattern": re.compile(
            r"\bsleep_for\s*\(|\bsleep_until\s*\(|\busleep\s*\("
            r"|\bnanosleep\s*\("
        ),
        "message": "raw sleep in the serving tier; route waits through "
                   "ServeClock::SleepMicros (serve/retry_policy.h) so "
                   "retry/breaker/hedge timing stays deterministic under "
                   "the manual test clock",
    },
    {
        "id": "raw-file-write",
        "paths": ("src/core/", "src/io/", "src/net/", "src/refresh/",
                  "src/seqcube/"),
        "top_level": ("tools/",),
        # The checksummed io layer is where the raw writes are supposed to
        # live — everything else goes through it.
        "exempt": ("src/io/checked_file.cc",),
        "pattern": re.compile(r"\bofstream\b|\bfopen\s*\(|\btmpfile\s*\("),
        "message": "raw file write outside the checksummed io layer; use "
                   "io/checked_file.h (sealed files / manifest lines) so "
                   "the artifact is CRC-sealed and the write passes the "
                   "fault-injection sites",
    },
]

RULE_IDS = {rule["id"] for rule in RULES}

# Rules owned by the AST analyzer (sncheck_ast.py). They share this file's
# suppression grammar, so their ids must be recognized here or every
# `// sncheck:allow(<ast-rule>)` comment would be flagged bad-suppression.
AST_RULE_IDS = {"lock-order", "unordered-iter", "clock-domain",
                "blocking-under-lock"}
RULE_IDS |= AST_RULE_IDS

ALLOW_RE = re.compile(r"//\s*sncheck:allow\(([^)]*)\)(:?)\s*(.*)")

SOURCE_EXTS = (".h", ".cc")


def strip_code(text):
    """Blank out comment and string-literal contents, preserving line
    structure, so rule patterns only ever match real code tokens."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def parse_suppressions(raw_lines):
    """Returns ({line_no: set(rule_ids)}, [findings]) from sncheck:allow
    comments. A suppression covers its own line and the next line (so it can
    sit above the code it excuses)."""
    allowed = {}
    findings = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m is None:
            continue
        rules_field, colon, justification = m.groups()
        rules = {r.strip() for r in rules_field.split(",") if r.strip()}
        bad = rules - RULE_IDS
        if bad:
            findings.append((idx, "bad-suppression",
                             "unknown rule(s) in sncheck:allow: "
                             + ", ".join(sorted(bad))))
            rules -= bad
        if colon != ":" or not justification.strip():
            findings.append((idx, "bad-suppression",
                             "sncheck:allow requires a justification: "
                             "`// sncheck:allow(<rule>): <why this is safe>`"))
            continue  # malformed allow suppresses nothing
        for line_no in (idx, idx + 1):
            allowed.setdefault(line_no, set()).update(rules)
    return allowed, findings


def applicable_rules(rel_path):
    parent = rel_path.rsplit("/", 1)[0] + "/"
    for rule in RULES:
        if rel_path in rule["exempt"]:
            continue
        if any(rel_path.startswith(p) for p in rule["paths"]) or \
                parent in rule.get("top_level", ()):
            yield rule


def check_file(root, rel_path):
    """Returns a list of (line_no, rule_id, message) findings."""
    rules = list(applicable_rules(rel_path))
    with open(os.path.join(root, rel_path), encoding="utf-8") as f:
        text = f.read()
    raw_lines = text.splitlines()
    allowed, findings = parse_suppressions(raw_lines)
    if rules:
        code_lines = strip_code(text).splitlines()
        for idx, code in enumerate(code_lines, start=1):
            for rule in rules:
                if not rule["pattern"].search(code):
                    continue
                if rule["id"] in allowed.get(idx, set()):
                    continue
                findings.append((idx, rule["id"], rule["message"]))
    return findings


def iter_source_files(root):
    """Every source under src/, then those directly in tools/."""
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root).replace(os.sep, "/")
    tools = os.path.join(root, "tools")
    if os.path.isdir(tools):
        for name in sorted(os.listdir(tools)):
            if name.endswith(SOURCE_EXTS) and \
                    os.path.isfile(os.path.join(tools, name)):
                yield "tools/" + name


def main(argv):
    parser = argparse.ArgumentParser(
        prog="sncheck", description="sncube project-invariant linter")
    parser.add_argument("--root", default=".",
                        help="repo root (scans <root>/src and <root>/tools/*)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("files", nargs="*",
                        help="restrict to these root-relative files "
                             "(default: all of src/ and tools/*)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule['id']}: {rule['message']}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"sncheck: no src/ under --root {root}", file=sys.stderr)
        return 2

    if args.files:
        rel_paths = [p.replace(os.sep, "/") for p in args.files
                     if p.endswith(SOURCE_EXTS)]
    else:
        rel_paths = list(iter_source_files(root))

    total = 0
    for rel_path in rel_paths:
        if not os.path.isfile(os.path.join(root, rel_path)):
            print(f"sncheck: no such file: {rel_path}", file=sys.stderr)
            return 2
        for line_no, rule_id, message in sorted(check_file(root, rel_path)):
            print(f"{rel_path}:{line_no}: [{rule_id}] {message}")
            total += 1
    if total:
        print(f"sncheck: {total} finding(s) in {len(rel_paths)} file(s) "
              f"checked", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
