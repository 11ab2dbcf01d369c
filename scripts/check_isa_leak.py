#!/usr/bin/env python3
"""ISA-leak lint: AVX code must stay inside the tagged kernels.

Every object in libman.a is built for the baseline x86-64 ISA. Only
the AVX2 and AVX-512 tier kernels in vector_kernels.cpp carry a
per-function target("avx2") or target("avx512f,avx512vl,avx512bw")
attribute (BW for the dense tile's int16 lanes),
and the vector backends pick a tier only after a CPUID check, so the
library runs on any x86-64 CPU. The rule the lint guards: AVX code
appears only in that object, never in a weak symbol, and never in a
`*Backend::` member function. A weak symbol
holding AVX code is the dangerous case: the linker keeps a single copy
for every caller, so portable code would execute AVX instructions and
die with SIGILL on a CPU without them. That happens if a target
attribute (or a per-file -m flag) ever reaches a header-defined
function with external linkage (inline or a template); the kernel
templates in vector_kernels.h have internal linkage for that reason.
A backend method holding AVX code
is the other: the methods run on every CPU, so an
inlined kernel could execute AVX instructions (a vmovq, say) on a CPU
without them; the symbols are local, so the weak rule cannot see it.

The lint disassembles the archive with demangled names and fails when
a weak symbol, a `*Backend::` member function, or any function outside
the kernels' object contains a VEX- or EVEX-encoded instruction
(AT&T mnemonics starting with "v", or the AVX-512 mask instructions
starting with "k"). Its ok line counts the AVX functions per object.

Usage: python3 scripts/check_isa_leak.py build/libman.a
Exit 0 when clean, 1 with a report, 2 on bad usage.
"""

import re
import subprocess
import sys
from collections import Counter

# The object whose kernels carry AVX target attributes.
AVX_OBJECTS = {"vector_kernels.cpp.o"}

# nm types of weak and unique-global definitions.
WEAK_TYPES = {"W", "V", "u"}

MEMBER = re.compile(r"^(\S+):\s+file format ")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSTRUCTION = re.compile(r"^\s*[0-9a-f]+:\s+(\S+)")


def run(*command):
    return subprocess.run(command, check=True, capture_output=True,
                          text=True).stdout


def weak_symbols(archive):
    """Demangled names of the archive's weak definitions."""
    weak = set()
    for line in run("nm", "--defined-only", "-C", archive).splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) == 3 and fields[1] in WEAK_TYPES:
            weak.add(fields[2])
    return weak


def backend_method(symbol):
    """True for a member function of a class named *Backend."""
    return re.search(r"\w*Backend::~?\w+\(", symbol) is not None


def avx_functions(archive):
    """(object, symbol) of every function holding a VEX/EVEX instruction."""
    found = set()
    member = symbol = None
    disassembly = run("objdump", "-d", "-C", "--no-show-raw-insn", archive)
    for line in disassembly.splitlines():
        if match := MEMBER.match(line):
            member, symbol = match.group(1), None
        elif match := FUNCTION.match(line):
            symbol = match.group(1)
        elif symbol and (match := INSTRUCTION.match(line)):
            if match.group(1).startswith(("v", "k")):
                found.add((member, symbol))
    return found


def main(argv):
    if len(argv) != 2:
        print("usage: check_isa_leak.py <libman.a>", file=sys.stderr)
        return 2
    weak = weak_symbols(argv[1])
    found = avx_functions(argv[1])
    failures = []
    for member, symbol in sorted(found):
        if symbol in weak:
            failures.append(f"{member}: weak symbol {symbol} holds AVX code; "
                            f"the linker may hand this copy to portable "
                            f"callers")
        elif backend_method(symbol):
            failures.append(f"{member}: {symbol} holds AVX code; backend "
                            f"methods run before their CPUID check and must "
                            f"only call the tagged kernels")
        elif member not in AVX_OBJECTS:
            failures.append(f"{member}: {symbol} holds AVX code outside "
                            f"the tagged kernels' objects")
    if failures:
        print("ISA leak:\n  " + "\n  ".join(failures))
        return 1
    counts = Counter(member for member, _ in found)
    per_object = ", ".join(f"{member}: {count}"
                           for member, count in sorted(counts.items()))
    print(f"ok: {len(found)} functions hold AVX code ({per_object or 'none'}); "
          f"none is weak or a Backend:: method")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
