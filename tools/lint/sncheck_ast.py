#!/usr/bin/env python3
"""sncheck_ast — AST-grounded whole-program analyzer for the sncube tree.

Where sncheck (same directory) enforces per-line invariants with regexes,
this tool builds a whole-program facts database — every lock acquisition
with the set of locks already held, every call edge, every clock read,
every unordered-container declaration and traversal — and checks four rule
families a regex cannot see:

  lock-order           Collect every MutexLock/lock_guard/unique_lock
                       acquisition site across all TUs and build the global
                       acquired-while-held graph (intra-function nesting
                       plus interprocedural edges: a call made under lock L
                       contributes L -> every lock the callee transitively
                       acquires). Any cycle is a potential deadlock; any
                       edge contradicting the declared hierarchy
                       (SNCUBE_ACQUIRED_AFTER / SNCUBE_ACQUIRED_BEFORE,
                       see common/thread_annotations.h and
                       serve/lock_order.h) is a finding even without a
                       second thread to complete the cycle. Lock identity
                       is instance-blind — keyed `Class::member` (or the
                       global's name) — so self-edges are ignored: nesting
                       two *instances* of the same class's lock (two cache
                       shards, two slots) is indistinguishable from
                       re-acquiring one, and the former is legitimate.

  unordered-iter       std::unordered_{map,set,multimap,multiset} iteration
                       order is unspecified and can leak into cube bytes.
                       In the deterministic paths (src/core, src/exec,
                       src/schedule, src/lattice) this flags (a) every
                       declaration of an unordered container — so a
                       lookup-only table carries an explicit suppression
                       saying it is never traversed — and (b) every
                       range-for / .begin() traversal of one, including a
                       traversal in a deterministic file of an unordered
                       member declared elsewhere (e.g. CubeResult::views).

  clock-domain         AST-call-resolution upgrade of sncheck's wall-clock
                       regex: in the sim-clock paths (src/core, src/io,
                       src/net, src/obs) a host-clock read is a finding
                       even when it is reached through a wrapper defined
                       outside those paths — the call site is flagged when
                       any callee candidate (virtual calls use any-override
                       semantics) transitively reaches steady_clock::now /
                       system_clock::now / clock_gettime / gettimeofday.
                       Direct reads are always flagged; call sites are
                       flagged only when the callee lives outside the
                       protected paths (otherwise the callee's own direct
                       finding already covers it). src/common/timer.h is
                       the sanctioned wall-clock wrapper and is exempt.

  blocking-under-lock  In src/serve, src/net, src/io a thread holding a
                       Mutex must not block: disk I/O (sealed-file helpers,
                       fopen/fread/fwrite/fsync, fstream construction),
                       Comm collectives (AllToAllv, Broadcast, Gather,
                       AllGather, AllReduce*, Barrier, ArriveAndCheck),
                       sleeps (sleep_for/until, usleep, nanosleep,
                       SleepMicros), and thread joins are flagged when
                       executed — directly or through a callee that may
                       transitively block — while any lock is held.
                       CondVar::Wait is exempt with one lock held (that is
                       what condition variables are for) but is a finding
                       with two or more locks held: the extra lock stays
                       held across the wait.

Frontends. The canonical frontend is clang.cindex over the repo's exported
compile_commands.json (`--frontend cindex`; CMAKE_EXPORT_COMPILE_COMMANDS
is ON at the top level). Because libclang is not installed everywhere the
tree must lint, the tool also carries a self-contained internal frontend —
a brace-accurate token-level C++ reader — that produces the same facts IR,
so `--frontend auto` (the default) falls back to it with a note when
cindex is unavailable. Both frontends feed the one rule engine above, and
the fixture self-test (sncheck_ast_test.py) pins their agreement. The
declared lock hierarchy and the suppression comments are always parsed
textually, identically in both frontends.

Suppression reuses sncheck's grammar — a justification is mandatory:

    // sncheck:allow(lock-order): join after live_workers_==0; workers are
    // past their last touch of server state, so this cannot deadlock

A suppression covers its own line and the next. Malformed or unknown-rule
allows are reported by sncheck itself (rule `bad-suppression`), not
duplicated here.

Exit status: 0 clean, 1 findings, 2 usage error (or missing frontend
under --ci, which is how CI fails hard instead of silently skipping),
77 skipped (`--frontend cindex` forced but libclang or the compile
database is unavailable, and not --ci).
"""

import argparse
import bisect
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import sncheck  # noqa: E402  (strip_code + suppression grammar live there)

EXIT_SKIP = 77

RULE_DOCS = {
    "lock-order": "acquired-while-held cycle or declared-hierarchy "
                  "contradiction in the global lock graph",
    "unordered-iter": "unordered container declared or traversed in a "
                      "deterministic path; iteration order can leak into "
                      "cube bytes",
    "clock-domain": "host clock reachable (directly or through wrappers) "
                    "from sim-clock code",
    "blocking-under-lock": "blocking operation (I/O, collective, sleep, "
                           "join) while holding a Mutex in the serving/"
                           "net/io tier",
}
AST_RULE_IDS = frozenset(RULE_DOCS)

DETERMINISTIC_PATHS = ("src/core/", "src/exec/", "src/schedule/",
                       "src/lattice/")
CLOCK_PATHS = ("src/core/", "src/io/", "src/net/", "src/obs/")
CLOCK_EXEMPT = ("src/common/timer.h",)
BLOCKING_PATHS = ("src/serve/", "src/net/", "src/io/")
# The wrapper layer itself is mechanism, not use: CondVar::Wait's internal
# adopt-lock dance and MutexLock's own ctor would read as acquisitions.
FACTS_EXEMPT = ("src/common/mutex.h",)

CLOCK_READ_RE = re.compile(
    r"steady_clock\s*::\s*now|system_clock\s*::\s*now"
    r"|high_resolution_clock\s*::\s*now|\bclock_gettime\b|\bgettimeofday\b")

BLOCKING_NAMES = frozenset({
    # sleeps
    "sleep_for", "sleep_until", "usleep", "nanosleep", "SleepMicros",
    # thread joins
    "join",
    # minimpi collectives (src/net/comm.h)
    "AllToAllv", "Broadcast", "Gather", "AllGather", "AllReduceSum",
    "AllReduceMax", "Barrier", "ArriveAndCheck",
    # sealed-file disk I/O (src/io/checked_file.h) and raw stdio
    "WriteSealedFile", "ReadSealedFile", "AppendSealedLine",
    "fopen", "fread", "fwrite", "fsync", "fflush",
})

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
ACQ_RE = re.compile(
    r"\b(?:MutexLock|std::lock_guard\s*<[^>]*>|std::unique_lock\s*<[^>]*>)"
    r"\s+\w+\s*\(\s*([^()]+?)\s*\)")
HIER_ATTR_RE = re.compile(r"SNCUBE_ACQUIRED_(AFTER|BEFORE)\s*\(([^()]*)\)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*([^;]*?)\s*:\s*([^;]+?)\s*\)")
CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*(?:\[[^\[\]]*\])?\s*(?:->|\.)\s*)*)"
    r"([A-Za-z_]\w*)\s*\(")
FSTREAM_RE = re.compile(r"\b[io]?fstream\b")
NOT_CALL_NAMES = frozenset({
    "if", "for", "while", "switch", "return", "catch", "sizeof", "new",
    "delete", "throw", "assert", "alignof", "decltype", "defined",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "static_assert", "noexcept", "co_await", "co_return", "operator",
})


def in_paths(rel, prefixes):
    return any(rel.startswith(p) for p in prefixes)


class Fn:
    """Facts for one function definition. Expression operands (lock args,
    call receivers, range expressions) are stored raw and resolved after
    every file has been parsed, so cross-file member lookups work."""

    def __init__(self, qual, cls, file, line):
        self.qual = qual          # e.g. "CubeServer::Shutdown" or "Free"
        self.name = qual.rsplit("::", 1)[-1]
        self.cls = cls            # innermost enclosing/prefix class or None
        self.file = file
        self.line = line
        self.acquires = []        # [raw_expr, line, held_idx_tuple] -> key
        self.calls = []           # [recv_token_or_None, name, line, held_idx]
        self.clock_reads = []     # [line, ...]
        self.blockers = []        # [(name, line, held_idx_tuple)]
        self.waits = []           # [(line, n_held)]
        self.traversals = []      # [raw_base_expr, member_or_None, line]
        self.local_types = {}     # var name -> raw type text
        # Filled by resolution:
        self.acq_keys = []        # lock key per acquires entry (or None)

    def held_keys(self, idx_tuple):
        out = []
        for i in idx_tuple:
            k = self.acq_keys[i]
            if k is not None and k not in out:
                out.append(k)
        return tuple(out)


class ClassInfo:
    def __init__(self, name, file):
        self.name = name          # nesting-joined, e.g. "ResultCache::Shard"
        self.file = file
        self.members = {}         # member name -> raw type text
        self.mutexes = set()      # member names that are Mutex
        self.methods = set()      # declared/defined method names


class Facts:
    """Whole-program facts database, frontend-neutral."""

    def __init__(self):
        self.functions = []       # [Fn]
        self.classes = {}         # innermost name -> [ClassInfo]
        self.globals = {}         # name -> raw type text (namespace scope)
        self.global_mutexes = set()
        self.hier = []            # [(this_expr, rel, arg_expr, cls, file, ln)]
        self.unordered_decls = [] # [(file, line, what)]

    def add_class(self, info):
        self.classes.setdefault(info.name.rsplit("::", 1)[-1], []).append(info)
        if "::" in info.name:
            self.classes.setdefault(info.name, []).append(info)

    def class_named(self, name, prefer_file=None):
        cands = self.classes.get(name, [])
        if prefer_file is not None and len(cands) > 1:
            same = [c for c in cands if c.file == prefer_file]
            if len(same) == 1:
                return same[0]
        return cands[0] if len(cands) == 1 else None


# ---------------------------------------------------------------------------
# Internal frontend: a brace-accurate token-level reader. It does not try to
# be a C++ parser; it tracks scope kinds (namespace/class/function/block),
# flushes statements at `;`/`{`/`}` boundaries, and pattern-matches facts out
# of each statement with the current scope context attached. Good enough to
# be exact on this tree and the fixture trees (pinned by the self-test), and
# deliberately conservative where it is not exact.

MEMBER_RE = re.compile(
    r"^(?:\s*(?:mutable|static|inline|constexpr|const|volatile)\b)*\s*"
    r"([A-Za-z_][\w:]*(?:\s*<.*>)?)\s*[&*]*\s+([A-Za-z_]\w*)\s*"
    r"(?:\[[^\]]*\]\s*)?(?:SNCUBE_\w+\s*\(.*?\)\s*)*(?:=.*|\{.*\})?$",
    re.S)
SKIP_STMT_RE = re.compile(
    r"^\s*(?:template\b|using\b|typedef\b|friend\b|struct\s+\w+\s*$"
    r"|class\s+\w+\s*$|enum\b|extern\b|namespace\b|#)")
ACCESS_RE = re.compile(r"^\s*(?:public|private|protected)\s*:\s*")
CLASS_HDR_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)")
LOCAL_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?([A-Za-z_][\w:]*(?:\s*<.*>)?)\s*[&*]*\s+"
    r"([A-Za-z_]\w*)\s*(?:=|\(|\{|;|$)", re.S)
PARAM_RE = re.compile(
    r"([A-Za-z_][\w:<>,\s*&]*?)[\s&*]+([A-Za-z_]\w*)\s*(?:=[^,]*)?$", re.S)
WRAP_RE = re.compile(
    r"^(?:const\s+)?(?:std\s*::\s*)?(?:vector|deque|list|array|span|"
    r"unique_ptr|shared_ptr|optional|reference_wrapper)\s*<(.*)>\s*[&*]*$",
    re.S)
BASE_TYPE_RE = re.compile(r"((?:\w+::)*)(\w+)\s*[&*]*\s*$")


def main_class_of_type(type_text):
    """Strip const/ref/ptr and the common ownership/container wrappers down
    to the innermost class identifier ('' when unresolvable)."""
    t = (type_text or "").strip()
    for _ in range(6):
        m = WRAP_RE.match(t)
        if not m:
            break
        t = m.group(1).strip()
        # array<T, N> / map-ish inner lists: keep the first top-level arg.
        depth = 0
        for i, c in enumerate(t):
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
            elif c == "," and depth == 0:
                t = t[:i]
                break
    t = re.sub(r"<.*>", "", t, flags=re.S).strip()
    m = BASE_TYPE_RE.search(t)
    return m.group(2) if m else ""


def blank_preprocessor(code):
    out = []
    cont = False
    for line in code.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            out.append(line)
    return "\n".join(out)


class _Scope:
    def __init__(self, kind, name=None, fn=None):
        self.kind = kind        # namespace | class | function | block | other
        self.name = name
        self.fn = fn            # Fn for function scopes


class InternalParser:
    def __init__(self, facts):
        self.facts = facts

    def parse_file(self, rel, raw_text):
        code = blank_preprocessor(sncheck.strip_code(raw_text))
        self.rel = rel
        self.line_starts = [0]
        for m in re.finditer("\n", code):
            self.line_starts.append(m.end())
        self.stack = []
        self.held = []          # [(acq_index_in_fn, fn, depth)]
        start = 0
        for i, c in enumerate(code):
            if c == "{":
                self.open_brace(code[start:i], start)
                start = i + 1
            elif c == "}":
                self.statement(code[start:i], start)
                self.close_brace()
                start = i + 1
            elif c == ";":
                self.statement(code[start:i], start)
                start = i + 1

    def line_of(self, off):
        return bisect.bisect_right(self.line_starts, off)

    def cur_fn(self):
        for s in reversed(self.stack):
            if s.kind == "function":
                return s.fn
        return None

    def cur_classes(self):
        return [s.name for s in self.stack if s.kind == "class"]

    def cur_class_info(self):
        for s in reversed(self.stack):
            if s.kind == "class":
                return s.info
        return None

    # -- brace classification ------------------------------------------------

    def open_brace(self, header, off):
        fn = self.cur_fn()
        if fn is not None:
            # Inside a function everything is a block (incl. lambdas, which
            # are analyzed inline as part of the enclosing function —
            # conservative for held-lock tracking, exact for this tree).
            self.statement(header, off)
            self.stack.append(_Scope("block"))
            return
        hdr = header.strip()
        if re.search(r"\bnamespace\b", hdr) and "(" not in hdr:
            m = re.search(r"\bnamespace\s+([\w:]+)", hdr)
            self.stack.append(_Scope("namespace",
                                     m.group(1) if m else "<anon>"))
            return
        if re.search(r"\benum\b", hdr) or hdr.rstrip().endswith("="):
            self.stack.append(_Scope("other"))
            return
        cm = CLASS_HDR_RE.search(
            re.sub(r"SNCUBE_\w+\s*\([^()]*\)", " ", hdr))
        if cm and "(" not in hdr.split(cm.group(2), 1)[0]:
            nesting = self.cur_classes() + [cm.group(2)]
            info = ClassInfo("::".join(nesting), self.rel)
            self.facts.add_class(info)
            sc = _Scope("class", cm.group(2))
            sc.info = info
            self.stack.append(sc)
            return
        p = hdr.find("(")
        if p >= 0:
            self.open_function(hdr, header, off, p)
            return
        self.stack.append(_Scope("other"))

    def open_function(self, hdr, header, off, p):
        prefix = hdr[:p].strip()
        m = re.search(r"([A-Za-z_][\w:~]*)\s*$", prefix)
        if not m:
            self.stack.append(_Scope("other"))
            return
        name = m.group(1)
        cls = None
        if "::" in name:
            cls = name.rsplit("::", 2)[-2]
            qual = "::".join(name.split("::")[-2:])
        elif self.cur_classes():
            cls = self.cur_classes()[-1]
            qual = f"{cls}::{name}"
            info = self.cur_class_info()
            if info is not None:
                info.methods.add(name)
        else:
            qual = name
        fn = Fn(qual, cls, self.rel, self.line_of(off))
        # Parameters -> local types (and unordered-decl scanning).
        depth, q = 0, p
        for q in range(p, len(hdr)):
            if hdr[q] == "(":
                depth += 1
            elif hdr[q] == ")":
                depth -= 1
                if depth == 0:
                    break
        params = hdr[p + 1:q]
        for part in self.split_top(params):
            pm = PARAM_RE.match(part.strip())
            if pm:
                fn.local_types[pm.group(2)] = pm.group(1)
        sc = _Scope("function")
        sc.fn = fn
        self.stack.append(sc)
        # Ctor-init-list / trailing annotations after the parameter list may
        # carry facts (e.g. a clock read in an initializer).
        tail = hdr[q + 1:]
        if tail.strip():
            self.function_statement(fn, tail, off + header.find(hdr) + q + 1)

    def close_brace(self):
        if not self.stack:
            return
        sc = self.stack.pop()
        depth = len(self.stack)
        self.held = [h for h in self.held if h[2] <= depth]
        if sc.kind == "function":
            self.facts.functions.append(sc.fn)
            self.held = [h for h in self.held if h[1] is not sc.fn]

    @staticmethod
    def split_top(text):
        out, depth, cur = [], 0, []
        for c in text:
            if c in "<([":
                depth += 1
            elif c in ">)]":
                depth -= 1
            if c == "," and depth == 0:
                out.append("".join(cur))
                cur = []
            else:
                cur.append(c)
        if cur:
            out.append("".join(cur))
        return out

    # -- statements ----------------------------------------------------------

    def statement(self, stmt, off):
        if not stmt.strip():
            return
        fn = self.cur_fn()
        if fn is not None:
            self.function_statement(fn, stmt, off)
        elif self.stack and self.stack[-1].kind == "class":
            self.class_member(stmt, off)
        else:
            self.namespace_decl(stmt, off)

    def record_hier(self, this_expr, stmt, cls, off):
        for m in HIER_ATTR_RE.finditer(stmt):
            rel_kind = m.group(1)  # AFTER | BEFORE
            for arg in m.group(2).split(","):
                arg = arg.strip()
                if arg:
                    self.facts.hier.append(
                        (this_expr, rel_kind, arg, cls, self.rel,
                         self.line_of(off + m.start())))

    def class_member(self, stmt, off):
        s = ACCESS_RE.sub("", stmt)
        if SKIP_STMT_RE.match(s):
            return
        info = self.cur_class_info()
        if info is None:
            return
        mm = re.match(
            r"^\s*(?:mutable\s+)?Mutex\s+([A-Za-z_]\w*)\s*", s)
        if mm:
            info.mutexes.add(mm.group(1))
            info.members[mm.group(1)] = "Mutex"
            self.record_hier(mm.group(1), s, info, off)
            return
        no_attr = re.sub(r"SNCUBE_\w+\s*\(.*?\)", " ", s, flags=re.S)
        if "(" in no_attr:
            dm = re.search(r"([A-Za-z_]\w*)\s*\(", no_attr)
            if dm and dm.group(1) not in NOT_CALL_NAMES:
                info.methods.add(dm.group(1))
            return
        m = MEMBER_RE.match(s)
        if m:
            type_text, name = m.group(1), m.group(2)
            info.members[name] = type_text
            if UNORDERED_RE.search(type_text):
                self.facts.unordered_decls.append(
                    (self.rel, self.line_of(off + s.find(name)),
                     f"member '{info.name}::{name}'"))

    def namespace_decl(self, stmt, off):
        s = stmt.strip()
        gm = re.match(
            r"^(?:inline\s+|static\s+|constinit\s+)*Mutex\s+"
            r"([A-Za-z_]\w*)\s*", s)
        if gm:
            name = gm.group(1)
            self.facts.globals[name] = "Mutex"
            self.facts.global_mutexes.add(name)
            self.record_hier(name, s, None, off)

    def function_statement(self, fn, stmt, off):
        depth = len(self.stack)
        held_idx = tuple(h[0] for h in self.held if h[1] is fn)

        # Local declarations (types feed receiver/range resolution; local
        # Mutex declarations become acquirable lock names).
        lm = LOCAL_DECL_RE.match(stmt)
        if lm and lm.group(1) not in ("return", "delete", "new"):
            fn.local_types.setdefault(lm.group(2), lm.group(1))
            if UNORDERED_RE.search(lm.group(1)) and \
                    in_paths(fn.file, DETERMINISTIC_PATHS):
                self.facts.unordered_decls.append(
                    (fn.file, self.line_of(off + stmt.find(lm.group(2))),
                     f"local '{lm.group(2)}' in {fn.qual}"))

        # Acquisitions.
        for m in ACQ_RE.finditer(stmt):
            line = self.line_of(off + m.start())
            fn.acquires.append([m.group(1).strip(), line, held_idx])
            idx = len(fn.acquires) - 1
            self.held.append((idx, fn, depth))
            held_idx = tuple(h[0] for h in self.held if h[1] is fn)

        # Range-for traversals.
        for m in RANGE_FOR_RE.finditer(stmt):
            rng = m.group(2).strip()
            line = self.line_of(off + m.start(2))
            base, member = self.split_receiver(rng)
            fn.traversals.append([base, member, line])
            # Bind the loop variable's element type for later resolution.
            vm = re.search(r"([A-Za-z_]\w*)\s*$", m.group(1))
            if vm:
                fn.local_types.setdefault(
                    vm.group(1), f"__elem__({rng})")

        # Clock reads.
        for m in CLOCK_READ_RE.finditer(stmt):
            fn.clock_reads.append(self.line_of(off + m.start()))

        # fstream construction counts as opening a file.
        if in_paths(fn.file, BLOCKING_PATHS) and held_idx:
            fm = FSTREAM_RE.search(stmt)
            if fm:
                fn.blockers.append(
                    ("fstream", self.line_of(off + fm.start()), held_idx))

        # Calls.
        for m in CALL_RE.finditer(stmt):
            name = m.group(2)
            if name in NOT_CALL_NAMES or name == "MutexLock":
                continue
            pre = stmt[:m.start()].rstrip()
            recv_chain = m.group(1)
            if not recv_chain and pre and (pre[-1].isalnum()
                                           or pre[-1] in "_>&*~"):
                continue  # `Type name(...)` declaration, not a call
            line = self.line_of(off + m.start(2))
            recv = None
            if recv_chain:
                toks = re.findall(r"[A-Za-z_]\w*", recv_chain)
                recv = toks[-1] if toks else None
            if name == "Wait":
                fn.waits.append((line, held_idx))
                continue
            if name in BLOCKING_NAMES:
                fn.blockers.append((name, line, held_idx))
                continue
            if name in ("begin", "cbegin") and recv is not None:
                fn.traversals.append([recv, None, line])
                continue
            fn.calls.append([recv, name, line, held_idx])

    @staticmethod
    def split_receiver(expr):
        """'a.b' / 'a->b' -> ('a', 'b'); bare 'a' -> ('a', None)."""
        expr = expr.strip()
        m = re.match(r"^([A-Za-z_]\w*)(?:\[[^\]]*\])?\s*(?:\.|->)\s*"
                     r"([A-Za-z_]\w*)$", expr)
        if m:
            return m.group(1), m.group(2)
        m = re.match(r"^([A-Za-z_]\w*)$", expr)
        if m:
            return m.group(1), None
        return expr, None


# ---------------------------------------------------------------------------
# Resolution: turn raw expressions into lock keys, class members, and call
# candidates now that every file's declarations are known.

class Resolver:
    def __init__(self, facts):
        self.facts = facts
        self.by_qual = {}
        self.by_name = {}
        for fn in facts.functions:
            self.by_qual.setdefault(fn.qual, []).append(fn)
            self.by_name.setdefault(fn.name, []).append(fn)
        # member mutex name -> [ClassInfo] (owner search fallback)
        self.mutex_owners = {}
        seen = set()
        for infos in facts.classes.values():
            for info in infos:
                if id(info) in seen:
                    continue
                seen.add(id(info))
                for m in info.mutexes:
                    self.mutex_owners.setdefault(m, []).append(info)

    # -- type resolution -----------------------------------------------------

    def expr_type_text(self, fn, name, depth=0):
        if depth > 4 or not name:
            return None
        t = fn.local_types.get(name)
        if t is None and fn.cls:
            info = self.facts.class_named(fn.cls, prefer_file=fn.file)
            if info is not None:
                t = info.members.get(name)
        if t is None:
            t = self.facts.globals.get(name)
        if t is not None and t.startswith("__elem__("):
            inner = t[len("__elem__("):-1]
            base, member = InternalParser.split_receiver(inner)
            it = self.member_type_text(fn, base, member, depth + 1)
            return it
        return t

    def member_type_text(self, fn, base, member, depth=0):
        """Type text of `base.member` (or of `base` when member is None)."""
        if member is None:
            return self.expr_type_text(fn, base, depth)
        base_t = self.expr_type_text(fn, base, depth)
        cls = self.facts.class_named(main_class_of_type(base_t),
                                     prefer_file=fn.file) if base_t else None
        if cls is not None:
            return cls.members.get(member)
        # Fallback: unique member name across all classes.
        owners = []
        seen = set()
        for infos in self.facts.classes.values():
            for info in infos:
                if id(info) in seen:
                    continue
                seen.add(id(info))
                if member in info.members:
                    owners.append(info)
        same = [o for o in owners if o.file == fn.file]
        pick = same[0] if len(same) == 1 else (
            owners[0] if len(owners) == 1 else None)
        return pick.members.get(member) if pick else None

    def class_of_expr(self, fn, name):
        t = self.expr_type_text(fn, name)
        if not t:
            return None
        return self.facts.class_named(main_class_of_type(t),
                                      prefer_file=fn.file)

    # -- lock keys -----------------------------------------------------------

    def lock_key(self, fn, expr):
        base, member = InternalParser.split_receiver(expr)
        if member is None:
            name = base
            if fn.local_types.get(name) == "Mutex":
                return f"local:{fn.qual}:{name}"
            if fn.cls:
                info = self.facts.class_named(fn.cls, prefer_file=fn.file)
                if info is not None and name in info.mutexes:
                    return f"{info.name}::{name}"
            if name in self.facts.global_mutexes:
                return name
            return self._owner_key(fn, name)
        cls = self.class_of_expr(fn, base)
        if cls is not None and member in cls.mutexes:
            return f"{cls.name}::{member}"
        return self._owner_key(fn, member)

    def _owner_key(self, fn, name):
        owners = self.mutex_owners.get(name, [])
        same = [o for o in owners if o.file == fn.file]
        pick = same[0] if len(same) == 1 else (
            owners[0] if len(owners) == 1 else None)
        return f"{pick.name}::{name}" if pick else None

    def hier_key(self, expr, cls_info, fn_file):
        """Normalize a SNCUBE_ACQUIRED_AFTER/BEFORE argument or the
        annotated mutex itself to a lock key."""
        name = re.split(r"::|->|\.", expr.strip())[-1].strip()
        if cls_info is not None and name in cls_info.mutexes:
            return f"{cls_info.name}::{name}"
        if name in self.facts.global_mutexes:
            return name
        owners = self.mutex_owners.get(name, [])
        same = [o for o in owners if o.file == fn_file]
        pick = same[0] if len(same) == 1 else (
            owners[0] if len(owners) == 1 else None)
        return f"{pick.name}::{name}" if pick else None

    # -- calls ---------------------------------------------------------------

    def call_candidates(self, fn, recv, name, qual_hint=None):
        if qual_hint is not None:
            return self.by_qual.get(qual_hint, [])
        if recv is not None:
            cls = self.class_of_expr(fn, recv)
            if cls is not None:
                short = cls.name.rsplit("::", 1)[-1]
                cands = self.by_qual.get(f"{short}::{name}")
                if cands:
                    return cands
            # Any-override semantics: an unresolved or abstract receiver
            # links to every definition of that method name.
            return self.by_name.get(name, [])
        if fn.cls:
            cands = self.by_qual.get(f"{fn.cls}::{name}")
            if cands:
                return cands
        return self.by_qual.get(name, [])

    def resolve_all(self):
        for fn in self.facts.functions:
            fn.acq_keys = [self.lock_key(fn, a[0]) if isinstance(a[0], str)
                           else a[0] for a in fn.acquires]


# ---------------------------------------------------------------------------
# Rule engine (frontend-neutral).

def analyze(facts, root):
    res = Resolver(facts)
    res.resolve_all()
    findings = []  # (file, line, rule, message)

    # Call candidate resolution (pre-resolved qualnames from the cindex
    # frontend ride in slot 4 of each call record when present).
    call_cands = {}
    for fn in facts.functions:
        for ci_, call in enumerate(fn.calls):
            recv, name = call[0], call[1]
            hint = call[4] if len(call) > 4 else None
            call_cands[(id(fn), ci_)] = res.call_candidates(
                fn, recv, name, hint)

    # Transitive fixpoint: acquires / clock reach / may-block.
    trans_acq = {id(fn): set(k for k in fn.acq_keys if k)
                 for fn in facts.functions}
    clock_reach = {id(fn): bool(fn.clock_reads) for fn in facts.functions}
    may_block = {id(fn): bool(fn.blockers) for fn in facts.functions}
    changed = True
    rounds = 0
    while changed and rounds < 50:
        changed = False
        rounds += 1
        for fn in facts.functions:
            for ci_, _call in enumerate(fn.calls):
                for cand in call_cands[(id(fn), ci_)]:
                    if cand is fn:
                        continue
                    extra = trans_acq[id(cand)] - trans_acq[id(fn)]
                    if extra:
                        trans_acq[id(fn)] |= extra
                        changed = True
                    if clock_reach[id(cand)] and not clock_reach[id(fn)]:
                        clock_reach[id(fn)] = True
                        changed = True
                    if may_block[id(cand)] and not may_block[id(fn)]:
                        may_block[id(fn)] = True
                        changed = True

    # --- unordered-iter ----------------------------------------------------
    for file, line, what in facts.unordered_decls:
        if in_paths(file, DETERMINISTIC_PATHS):
            findings.append((file, line, "unordered-iter",
                             f"unordered container declared in a "
                             f"deterministic path ({what}); iteration order "
                             f"can leak into cube bytes — use std::map / a "
                             f"sorted vector, or suppress if provably "
                             f"lookup-only"))
    for fn in facts.functions:
        if not in_paths(fn.file, DETERMINISTIC_PATHS):
            continue
        for trav in fn.traversals:
            if len(trav) > 3:  # pre-resolved by cindex
                is_unordered = trav[3]
            else:
                t = res.member_type_text(fn, trav[0], trav[1])
                is_unordered = bool(t and UNORDERED_RE.search(t))
            if is_unordered:
                expr = trav[0] + (f".{trav[1]}" if trav[1] else "")
                findings.append((fn.file, trav[2], "unordered-iter",
                                 f"traversal of unordered container "
                                 f"'{expr}' in {fn.qual}; iteration order is "
                                 f"unspecified and can leak into cube bytes"))

    # --- clock-domain ------------------------------------------------------
    for fn in facts.functions:
        if not in_paths(fn.file, CLOCK_PATHS) or fn.file in CLOCK_EXEMPT:
            continue
        for line in fn.clock_reads:
            findings.append((fn.file, line, "clock-domain",
                             f"direct host-clock read in {fn.qual}; "
                             f"simulated time must flow through the BSP "
                             f"clock / DiskModel"))
        for ci_, call in enumerate(fn.calls):
            cands = [c for c in call_cands[(id(fn), ci_)]
                     if c.file not in CLOCK_EXEMPT]
            hot = [c for c in cands if clock_reach[id(c)]
                   and not in_paths(c.file, CLOCK_PATHS)]
            if hot:
                findings.append((fn.file, call[2], "clock-domain",
                                 f"call to '{call[1]}' ({hot[0].qual}, "
                                 f"{hot[0].file}) reaches a host-clock read "
                                 f"from sim-clock code in {fn.qual}"))

    # --- blocking-under-lock -----------------------------------------------
    for fn in facts.functions:
        if not in_paths(fn.file, BLOCKING_PATHS):
            continue
        for name, line, held_idx in fn.blockers:
            held = fn.held_keys(held_idx)
            if held:
                findings.append((fn.file, line, "blocking-under-lock",
                                 f"blocking operation '{name}' in {fn.qual} "
                                 f"while holding {{{', '.join(held)}}}"))
        for ci_, call in enumerate(fn.calls):
            held = fn.held_keys(call[3])
            if not held:
                continue
            blocky = [c for c in call_cands[(id(fn), ci_)]
                      if may_block[id(c)]]
            if blocky:
                findings.append((fn.file, call[2], "blocking-under-lock",
                                 f"call to '{call[1]}' ({blocky[0].qual}) "
                                 f"may block (transitively) in {fn.qual} "
                                 f"while holding {{{', '.join(held)}}}"))
        for line, held_idx in fn.waits:
            held = fn.held_keys(held_idx)
            if len(held) >= 2:
                findings.append((fn.file, line, "blocking-under-lock",
                                 f"CondVar::Wait in {fn.qual} with "
                                 f"{len(held)} locks held "
                                 f"{{{', '.join(held)}}}; the extra lock "
                                 f"stays held across the wait"))

    # --- lock-order --------------------------------------------------------
    edges = {}  # (outer, inner) -> (file, line, via)
    for fn in facts.functions:
        for i, (expr, line, held_idx) in enumerate(fn.acquires):
            key = fn.acq_keys[i]
            if key is None:
                continue
            for h in fn.held_keys(held_idx):
                if h != key:
                    edges.setdefault((h, key),
                                     (fn.file, line, f"in {fn.qual}"))
        for ci_, call in enumerate(fn.calls):
            held = fn.held_keys(call[3])
            if not held:
                continue
            acq = set()
            for cand in call_cands[(id(fn), ci_)]:
                acq |= trans_acq[id(cand)]
            for h in held:
                for a in acq:
                    if a != h:
                        edges.setdefault(
                            (h, a),
                            (fn.file, call[2],
                             f"via call to {call[1]} in {fn.qual}"))

    # Declared hierarchy: before(outer, inner) pairs + transitive closure.
    before = set()
    decl_site = {}
    for this_expr, rel_kind, arg_expr, cls, file, line in facts.hier:
        this_key = res.hier_key(this_expr, cls, file)
        arg_key = res.hier_key(arg_expr, cls, file)
        if this_key is None or arg_key is None:
            continue
        pair = (arg_key, this_key) if rel_kind == "AFTER" \
            else (this_key, arg_key)
        before.add(pair)
        decl_site.setdefault(pair, (file, line))
    keys = sorted({k for p in before for k in p}
                  | {k for e in edges for k in e})
    closure = set(before)
    for mid in keys:
        for a in keys:
            for b in keys:
                if (a, mid) in closure and (mid, b) in closure:
                    closure.add((a, b))
    for pair in sorted(before):
        a, b = pair
        if (b, a) in closure:
            file, line = decl_site[pair]
            findings.append((file, line, "lock-order",
                             f"declared hierarchy is contradictory: "
                             f"'{a}' before '{b}' and '{b}' before '{a}'"))
    for (outer, inner), (file, line, via) in sorted(edges.items()):
        if (inner, outer) in closure:
            findings.append((file, line, "lock-order",
                             f"'{inner}' acquired while holding '{outer}' "
                             f"({via}) contradicts the declared hierarchy "
                             f"('{inner}' must be acquired first)"))

    # Cycles in the observed graph (Tarjan SCC).
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)
    index_of, low, on_stack, stk, sccs = {}, {}, set(), [], []
    counter = [0]

    def strongconnect(v):
        work = [(v, iter(sorted(adj.get(v, ()))))]
        index_of[v] = low[v] = counter[0]
        counter[0] += 1
        stk.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index_of:
                    index_of[w] = low[w] = counter[0]
                    counter[0] += 1
                    stk.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                comp = []
                while True:
                    w = stk.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1:
                    sccs.append(sorted(comp))

    for v in sorted(adj):
        if v not in index_of:
            strongconnect(v)
    for comp in sccs:
        comp_set = set(comp)
        label = " -> ".join(comp + [comp[0]])
        for (a, b), (file, line, via) in sorted(edges.items()):
            if a in comp_set and b in comp_set:
                findings.append((file, line, "lock-order",
                                 f"lock cycle (potential deadlock) among "
                                 f"{{{', '.join(comp)}}}: '{b}' acquired "
                                 f"while holding '{a}' {via}; cycle "
                                 f"{label}"))

    # Deduplicate by site+rule (a line can yield the same finding through
    # several analysis routes); keep the first message deterministically.
    out, seen = [], set()
    for f in sorted(findings):
        if (f[0], f[1], f[2]) in seen:
            continue
        seen.add((f[0], f[1], f[2]))
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# Suppressions: sncheck's grammar, restricted to this tool's rule ids.
# Malformed allows (missing justification, unknown rule) are sncheck's
# `bad-suppression` findings — not duplicated here.

def allowed_map(root, rel, cache):
    if rel in cache:
        return cache[rel]
    allowed = {}
    try:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
    except OSError:
        cache[rel] = allowed
        return allowed
    for idx, line in enumerate(raw_lines, start=1):
        m = sncheck.ALLOW_RE.search(line)
        if m is None:
            continue
        rules_field, colon, justification = m.groups()
        if colon != ":" or not justification.strip():
            continue
        rules = {r.strip() for r in rules_field.split(",")} & AST_RULE_IDS
        for line_no in (idx, idx + 1):
            allowed.setdefault(line_no, set()).update(rules)
    cache[rel] = allowed
    return allowed


# ---------------------------------------------------------------------------
# Frontends.

def iter_tree_files(root):
    for rel in sncheck.iter_source_files(root):
        if rel not in FACTS_EXEMPT:
            yield rel


def build_facts_internal(root):
    facts = Facts()
    parser = InternalParser(facts)
    for rel in iter_tree_files(root):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            parser.parse_file(rel, f.read())
    return facts


def find_compile_commands(root, explicit):
    if explicit:
        return explicit if os.path.isfile(explicit) else None
    for d in ("build", "build-lint"):
        p = os.path.join(root, d, "compile_commands.json")
        if os.path.isfile(p):
            return p
    return None


def cindex_unavailable_reason(cc_path):
    if cc_path is None:
        return "no compile_commands.json (configure with cmake first)"
    try:
        import clang.cindex as ci
    except ImportError:
        return "python module clang.cindex not importable " \
               "(pip install libclang)"
    try:
        ci.Index.create()
    except Exception as e:  # libclang .so missing or mismatched
        return f"libclang not loadable: {e}"
    return None


def build_facts_cindex(root, cc_path):
    """clang.cindex frontend: same facts IR, resolved via real AST cursors.
    The declared hierarchy and textual class tables still come from the
    internal parse (identical in both frontends by construction)."""
    import clang.cindex as ci
    K = ci.CursorKind
    facts = build_facts_internal(root)  # class tables + hierarchy + decls
    # Replace function facts with cursor-derived ones.
    facts.functions = []
    facts.unordered_decls = [d for d in facts.unordered_decls
                             if d[2].startswith("member ")]
    index = ci.Index.create()
    with open(cc_path, encoding="utf-8") as f:
        db = json.load(f)
    seen_fns = set()
    lock_types = ("MutexLock", "lock_guard", "unique_lock")

    def relpath(cursor):
        loc = cursor.location
        if loc.file is None:
            return None
        rel = os.path.relpath(str(loc.file), root).replace(os.sep, "/")
        return rel if rel.startswith("src/") else None

    def qual_of(ref):
        parent = ref.semantic_parent
        if parent is not None and parent.kind in (
                K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
            return f"{parent.spelling}::{ref.spelling}", parent.spelling
        return ref.spelling, None

    def lock_key_of(var_cursor, fn):
        for node in var_cursor.walk_preorder():
            if node.kind in (K.MEMBER_REF_EXPR, K.DECL_REF_EXPR):
                ref = node.referenced
                if ref is None:
                    continue
                if "Mutex" not in ref.type.spelling \
                        and "mutex" not in ref.type.spelling:
                    continue
                if ref.kind == K.FIELD_DECL:
                    return f"{ref.semantic_parent.spelling}::{ref.spelling}"
                parent = ref.semantic_parent
                if parent is not None and parent.kind in (
                        K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                        K.DESTRUCTOR):
                    return f"local:{fn.qual}:{ref.spelling}"
                return ref.spelling
        return None

    def walk_body(cursor, fn, held):
        for child in cursor.get_children():
            kind = child.kind
            if kind == K.COMPOUND_STMT:
                walk_body(child, fn, list(held))
                continue
            if kind == K.VAR_DECL:
                ts = child.type.spelling
                if any(lt in ts for lt in lock_types):
                    key = lock_key_of(child, fn)
                    fn.acquires.append(
                        [key, child.location.line, tuple(held)])
                    held.append(len(fn.acquires) - 1)
                    continue
                if UNORDERED_RE.search(ts) and \
                        in_paths(fn.file, DETERMINISTIC_PATHS):
                    facts.unordered_decls.append(
                        (fn.file, child.location.line,
                         f"local '{child.spelling}' in {fn.qual}"))
            if kind == K.CXX_FOR_RANGE_STMT:
                kids = list(child.get_children())
                if len(kids) >= 2 and UNORDERED_RE.search(
                        kids[-2].type.spelling or ""):
                    fn.traversals.append(
                        ["<range>", None, child.location.line, True])
                walk_body(child, fn, list(held))
                continue
            if kind == K.CALL_EXPR:
                ref = child.referenced
                name = ref.spelling if ref is not None else child.spelling
                line = child.location.line
                if name:
                    qual, pcls = (qual_of(ref) if ref is not None
                                  else (name, None))
                    if name == "now" and pcls in (
                            "steady_clock", "system_clock",
                            "high_resolution_clock"):
                        fn.clock_reads.append(line)
                    elif name in ("clock_gettime", "gettimeofday"):
                        fn.clock_reads.append(line)
                    elif name == "Wait" and pcls == "CondVar":
                        fn.waits.append((line, tuple(held)))
                    elif name in BLOCKING_NAMES:
                        fn.blockers.append((name, line, tuple(held)))
                    elif name in ("begin", "cbegin"):
                        args = list(child.get_children())
                        if args and UNORDERED_RE.search(
                                args[0].type.spelling or ""):
                            fn.traversals.append(
                                ["<iter>", None, line, True])
                    else:
                        fn.calls.append([None, name, line, tuple(held),
                                         qual])
                walk_body(child, fn, held)
                continue
            walk_body(child, fn, held)

    def visit_tu(cursor):
        for child in cursor.walk_preorder():
            if child.kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                              K.DESTRUCTOR, K.FUNCTION_TEMPLATE):
                if not child.is_definition():
                    continue
                rel = relpath(child)
                if rel is None or rel in FACTS_EXEMPT:
                    continue
                qual, pcls = qual_of(child)
                fkey = (rel, child.location.line, qual)
                if fkey in seen_fns:
                    continue
                seen_fns.add(fkey)
                fn = Fn(qual, pcls, rel, child.location.line)
                facts.functions.append(fn)
                walk_body(child, fn, [])
            elif child.kind == K.FIELD_DECL:
                rel = relpath(child)
                if rel and in_paths(rel, DETERMINISTIC_PATHS):
                    pass  # member decls already collected textually

    parsed_any = False
    for entry in db:
        src = entry.get("file", "")
        full = src if os.path.isabs(src) else os.path.join(
            entry.get("directory", root), src)
        rel = os.path.relpath(full, root).replace(os.sep, "/")
        if not rel.startswith("src/") or not rel.endswith(".cc"):
            continue
        args = entry.get("arguments")
        if not args:
            args = entry.get("command", "").split()
        clean, skip = [], False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c", src) or a == full:
                continue
            if a == "-o":
                skip = True
                continue
            clean.append(a)
        try:
            tu = index.parse(full, args=clean)
        except Exception as e:
            print(f"sncheck_ast: cindex failed on {rel}: {e}",
                  file=sys.stderr)
            continue
        parsed_any = True
        visit_tu(tu.cursor)
    if not parsed_any:
        raise RuntimeError("cindex parsed no translation units")
    return facts


# ---------------------------------------------------------------------------
# CLI.

def main(argv):
    p = argparse.ArgumentParser(
        prog="sncheck_ast",
        description="sncube whole-program AST analyzer "
                    "(lock-order, unordered-iter, clock-domain, "
                    "blocking-under-lock)")
    p.add_argument("--root", default=".", help="repo root (scans <root>/src)")
    p.add_argument("--compile-commands", default=None,
                   help="compile_commands.json for the cindex frontend "
                        "(default: <root>/build*/compile_commands.json)")
    p.add_argument("--frontend", choices=("auto", "cindex", "internal"),
                   default="auto",
                   help="auto: cindex when available, else the internal "
                        "parser; cindex: require libclang (exit 77 when "
                        "missing); internal: always available")
    p.add_argument("--ci", action="store_true",
                   help="hard-fail (exit 2) instead of skipping/falling "
                        "back when the cindex frontend is unavailable")
    p.add_argument("--json-out", default=None,
                   help="write the full findings report (including "
                        "suppressed ones) as JSON")
    p.add_argument("--list-rules", action="store_true",
                   help="print rule ids and exit")
    args = p.parse_args(argv)

    if args.list_rules:
        for rule, doc in RULE_DOCS.items():
            print(f"{rule}: {doc}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"sncheck_ast: no src/ under --root {root}", file=sys.stderr)
        return 2

    frontend = args.frontend
    cc_path = find_compile_commands(root, args.compile_commands)
    if frontend in ("auto", "cindex"):
        reason = cindex_unavailable_reason(cc_path)
        if reason is not None:
            if args.ci:
                print(f"sncheck_ast: cindex frontend required in CI but "
                      f"unavailable: {reason}", file=sys.stderr)
                return 2
            if frontend == "cindex":
                print(f"sncheck_ast: SKIPPED: {reason}", file=sys.stderr)
                return EXIT_SKIP
            print(f"sncheck_ast: note: falling back to the internal "
                  f"frontend ({reason})", file=sys.stderr)
            frontend = "internal"
        else:
            frontend = "cindex"

    if frontend == "cindex":
        try:
            facts = build_facts_cindex(root, cc_path)
        except Exception as e:
            if args.ci:
                print(f"sncheck_ast: cindex frontend failed: {e}",
                      file=sys.stderr)
                return 2
            print(f"sncheck_ast: note: cindex frontend failed ({e}); "
                  f"falling back to the internal frontend", file=sys.stderr)
            frontend = "internal"
            facts = build_facts_internal(root)
    else:
        facts = build_facts_internal(root)

    findings = analyze(facts, root)
    cache = {}
    report, unsuppressed = [], 0
    for file, line, rule, message in findings:
        suppressed = rule in allowed_map(root, file, cache).get(line, set())
        report.append({"file": file, "line": line, "rule": rule,
                       "message": message, "suppressed": suppressed})
        if not suppressed:
            print(f"{file}:{line}: [{rule}] {message}")
            unsuppressed += 1

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump({
                "frontend": frontend,
                "functions": len(facts.functions),
                "findings": report,
                "unsuppressed": unsuppressed,
            }, f, indent=2)
            f.write("\n")

    if unsuppressed:
        print(f"sncheck_ast: {unsuppressed} unsuppressed finding(s) "
              f"({frontend} frontend, {len(facts.functions)} functions)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
