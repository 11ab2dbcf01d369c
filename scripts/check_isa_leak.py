#!/usr/bin/env python3
"""ISA-leak lint: AVX code must stay inside the tagged kernels.

Every object in libman.a is built for the baseline x86-64 ISA. Only
the AVX2 and AVX-512 tier kernels in vector_kernels.cpp carry a
per-function target("avx2") or target("avx512f,avx512vl,avx512bw")
attribute (BW for the dense tile's int16 lanes). A backend is one
`KernelBackend` object holding a table of its loops; the registry
builds the vector caps' tables (vector_backend(), after cpu_bytes()
has checked CPUID), so the library runs on any x86-64 CPU. The rule
the lint guards: AVX code appears only in the tagged kernels' object,
never in a weak symbol, never in a `KernelBackend::` member function,
and never in that object's registry functions. A weak symbol
holding AVX code is the dangerous case: the linker keeps a single copy
for every caller, so portable code would execute AVX instructions and
die with SIGILL on a CPU without them. That happens if a target
attribute (or a per-file -m flag) ever reaches a header-defined
function with external linkage (inline or a template); the kernel
templates in vector_kernels.h have internal linkage for that reason.
A `KernelBackend` method or a registry function holding AVX code is
the other: they run on every CPU, the registry before the CPUID check
has picked a tier, so an inlined kernel could execute AVX instructions
(a vmovq, say) on a CPU without them; their symbols may be local, so
the weak rule cannot see it.

The lint disassembles the archive with demangled names and fails when
a weak symbol, a `KernelBackend::` member function, a registry
function, or any function outside the kernels' object contains a VEX-
or EVEX-encoded instruction (AT&T mnemonics starting with "v", or the
AVX-512 mask instructions starting with "k"). It also fails when a
registry function is missing from the kernels' object, so a rename
cannot switch the rule off. Its ok line counts the AVX functions per
object.

Usage: python3 scripts/check_isa_leak.py build/libman.a
Exit 0 when clean, 1 with a report, 2 on bad usage.
"""

import re
import subprocess
import sys
from collections import Counter

# The object whose kernels carry AVX target attributes.
AVX_OBJECTS = {"vector_kernels.cpp.o"}

# Functions of that object that run before, or make, the CPUID check
# and build the tier tables: they must hold no AVX code. Matched as
# demangled-name prefixes, so GCC's clones (".cold", ".part") count.
REGISTRY_FUNCTIONS = ("man::backend::detail::cpu_bytes(",
                      "man::backend::detail::vector_backend(")

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
    """True for a member function of KernelBackend."""
    return re.search(r"\bKernelBackend::~?\w+\(", symbol) is not None


def registry_function(symbol):
    """True for a registry function of the kernels' object."""
    return symbol.startswith(REGISTRY_FUNCTIONS)


def functions(archive):
    """(object, symbol) of every function, and of those holding a
    VEX/EVEX instruction."""
    every, found = set(), set()
    member = symbol = None
    disassembly = run("objdump", "-d", "-C", "--no-show-raw-insn", archive)
    for line in disassembly.splitlines():
        if match := MEMBER.match(line):
            member, symbol = match.group(1), None
        elif match := FUNCTION.match(line):
            symbol = match.group(1)
            every.add((member, symbol))
        elif symbol and (match := INSTRUCTION.match(line)):
            if match.group(1).startswith(("v", "k")):
                found.add((member, symbol))
    return every, found


def main(argv):
    if len(argv) != 2:
        print("usage: check_isa_leak.py <libman.a>", file=sys.stderr)
        return 2
    weak = weak_symbols(argv[1])
    every, found = functions(argv[1])
    failures = []
    for prefix in REGISTRY_FUNCTIONS:
        if not any(member in AVX_OBJECTS and symbol.startswith(prefix)
                   for member, symbol in every):
            failures.append(f"registry function {prefix}...) not found in "
                            f"{', '.join(sorted(AVX_OBJECTS))}; update "
                            f"REGISTRY_FUNCTIONS")
    for member, symbol in sorted(found):
        if symbol in weak:
            failures.append(f"{member}: weak symbol {symbol} holds AVX code; "
                            f"the linker may hand this copy to portable "
                            f"callers")
        elif backend_method(symbol):
            failures.append(f"{member}: {symbol} holds AVX code; "
                            f"KernelBackend methods run on every CPU and "
                            f"must only call through their loop table")
        elif registry_function(symbol):
            failures.append(f"{member}: {symbol} holds AVX code; the "
                            f"registry runs before the CPUID check has "
                            f"picked a tier")
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
          f"none is weak, a KernelBackend:: method or a registry "
          f"function")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
