#!/usr/bin/env python3
"""ISA-leak lint: AVX code must stay inside the tagged kernels.

Every object in libman.a is built for the baseline x86-64 ISA. Only
the intrinsic kernels in simd_backend.cpp and avx512_backend.cpp carry
a per-function target("avx2") or target("avx512f,avx512vl") attribute,
and both backends check CPUID before they call them, so the library
runs on any x86-64 CPU. The rule the lint guards: AVX code appears
only in those two objects and never in a weak symbol. A weak symbol
holding AVX code is the dangerous case: the linker keeps a single copy
for every caller, so portable code would execute AVX instructions and
die with SIGILL on a CPU without them. That happens if a target
attribute (or a per-file -m flag) ever reaches a header-defined
function (inline or a template).

The lint disassembles the archive and fails when a weak symbol, or any
function outside the two backend objects, contains a VEX- or
EVEX-encoded instruction (AT&T mnemonics starting with "v", or the
AVX-512 mask instructions starting with "k").

Usage: python3 scripts/check_isa_leak.py build/libman.a
Exit 0 when clean, 1 with a report, 2 on bad usage.
"""

import re
import subprocess
import sys

# The objects whose kernels carry AVX target attributes.
AVX_OBJECTS = {"simd_backend.cpp.o", "avx512_backend.cpp.o"}

# nm types of weak and unique-global definitions.
WEAK_TYPES = {"W", "V", "u"}

MEMBER = re.compile(r"^(\S+):\s+file format ")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSTRUCTION = re.compile(r"^\s*[0-9a-f]+:\s+(\S+)")


def run(*command):
    return subprocess.run(command, check=True, capture_output=True,
                          text=True).stdout


def weak_symbols(archive):
    weak = set()
    for line in run("nm", "--defined-only", archive).splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in WEAK_TYPES:
            weak.add(fields[2])
    return weak


def avx_functions(archive):
    """(object, symbol) of every function holding a VEX/EVEX instruction."""
    found = set()
    member = symbol = None
    disassembly = run("objdump", "-d", "--no-show-raw-insn", archive)
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
        elif member not in AVX_OBJECTS:
            failures.append(f"{member}: {symbol} holds AVX code outside "
                            f"the tagged kernels' objects")
    if failures:
        print("ISA leak:\n  " + "\n  ".join(failures))
        return 1
    members = ", ".join(sorted({m for m, _ in found})) or "no object"
    print(f"ok: {len(found)} functions hold AVX code, all local to {members}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
