#!/usr/bin/env bash
# Layering lint. (1) The SharingModel policy layer: no code outside
# src/policy/ (and the display-name map in src/common/config.cc) may
# branch on the SharingPolicy enum. Storing or forwarding an enum value
# is fine — switching or comparing on it is the smell this guards
# against, because such logic belongs in a policy::SharingModel hook.
# (2) No file under src/traffic/ includes a src/sim/ header.
# (3) Only src/sim/ and tests/ include the cycle-loop internals.
# (4) No file under tools/ registers a shared run key: the keys that
# fill a runner::JobSpec are declared once, in src/runner/sweep.cc.
# (5) Only src/obs/ calls internString(): string payloads go through
# obs::emit's name overload, which checks the mask first.
#
# Usage: lint_policy_layering.sh [repo-root]   (exit 0 = clean)

set -u
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

# Branching forms: `case SharingPolicy::X`, `== / != SharingPolicy::X`
# (either operand order), and `switch (<...>.policy)`.
patterns=(
    'case[[:space:]]+SharingPolicy::'
    '[=!]=[[:space:]]*SharingPolicy::'
    'SharingPolicy::[A-Za-z_]+[[:space:]]*[=!]='
    'switch[[:space:]]*\([^)]*policy'
)

fail=0
for pat in "${patterns[@]}"; do
    hits=$(grep -rnE "$pat" src \
               --include='*.cc' --include='*.hh' \
               | grep -v '^src/policy/' \
               | grep -v '^src/common/config\.cc:')
    if [ -n "$hits" ]; then
        echo "policy layering violation (pattern '$pat'):"
        echo "$hits"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo
    echo "SharingPolicy branching belongs in src/policy/ — add or use a"
    echo "policy::SharingModel hook instead of switching on the enum."
    exit 1
fi
echo "policy layering: clean"

# src/traffic sits below the simulator: System drives traffic::Session,
# dispatchers and admission policies through callbacks and plain data,
# so no file under src/traffic/ may include a src/sim header.
hits=$(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]sim/' \
           src/traffic --include='*.cc' --include='*.hh')
if [ -n "$hits" ]; then
    echo "traffic layering violation (src/traffic includes src/sim):"
    echo "$hits"
    exit 1
fi
echo "traffic layering: clean"

# The cycle loop's internals (Coordinator, ClusterEngine, TickPool,
# WakeTable) sit behind System: tools, benches, examples, the runner
# and perfbench drive a run through sim/system.hh only.
hits=$(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]sim/(coordinator|cluster_engine|tick_pool|wake_table)\.hh' \
           . --include='*.cc' --include='*.hh' \
           | grep -vE '^\./(src/sim|tests)/' \
           | grep -vE '^\./(build|\.bench_build)[^/]*/')
if [ -n "$hits" ]; then
    echo "cycle-loop layering violation (include outside src/sim, tests):"
    echo "$hits"
    exit 1
fi
echo "cycle-loop layering: clean"

# The keys that fill a JobSpec are declared once, in runner::addRunKeys;
# a tool that registers one again has its own copy to drift. The key
# names come from that table itself, so the rule follows it.
registrar='\.(value|custom|onOff|flag)\("'
keys=$(grep -oE "${registrar}[a-z0-9-]+\"" src/runner/sweep.cc \
           | sed -E 's/.*\("//; s/"$//' | paste -sd '|' -)
if [ -z "$keys" ]; then
    echo "run-key lint: no keys found in src/runner/sweep.cc"
    exit 1
fi
hits=$(grep -rnE "${registrar}(${keys})\"" tools \
           --include='*.cc' --include='*.hh')
if [ -n "$hits" ]; then
    echo "run-key violation (tools/ registers a key of runner::addRunKeys):"
    echo "$hits"
    exit 1
fi
echo "run keys: clean"

hits=$(grep -rn 'internString(' src tools bench examples perfbench \
           --include='*.cc' --include='*.hh' | grep -v '^src/obs/')
if [ -n "$hits" ]; then
    echo "intern violation (internString outside src/obs/; use obs::emit):"
    echo "$hits"
    exit 1
fi
echo "string payloads: clean"
