#!/usr/bin/env bash
# The arithmetic guard over internal/tensor's assembly (DESIGN.md §7): every
# product step is one fused multiply-add, and everything else rounds each
# operation, as its Go twin does. So, in the code of every .s and .h but
# exp_amd64.h (which has fused multiply-adds where math.Exp has them):
#   - the four step macros (STEP, PLAINMADD and both MADD) hold no VMULPD or
#     VADDPD: no product mixes the two arithmetics;
#   - nothing outside them is a fused multiply-add (VFN?M(ADD|SUB)): not the
#     bias, the narrow kernel's NaN probe, log_amd64.h, the softmax passes or
#     optim_amd64.h, the optimizer steps, which round each operation as
#     their Go loops do (and must be among the files scanned).
# Prints each offending line and exits 1; `make vet` and CI run it.
set -eu
cd "$(dirname "$0")/../internal/tensor"
awk '
	FNR == 1 { step = 0; if (FILENAME == "optim_amd64.h") optim = 1 }
	{ code = $0; sub(/\/\/.*/, "", code) }
	code ~ /^#define (STEP|PLAINMADD|MADD)\(/ { step = 1; steps++ }
	step && code ~ /V(MUL|ADD)PD/ { print FILENAME ":" FNR ": unfused product step: " $0; bad = 1 }
	!step && code ~ /VFN?M(ADD|SUB)/ { print FILENAME ":" FNR ": fused multiply-add outside a product step: " $0; bad = 1 }
	step && code !~ /\\$/ { step = 0 }
	END {
		if (steps != 4) { print "found " steps " product step macros, want 4 (STEP, PLAINMADD, MADD twice)"; bad = 1 }
		if (!optim) { print "optim_amd64.h, the optimizer steps, was not scanned"; bad = 1 }
		exit bad
	}
' $(ls *.s *.h | grep -vx exp_amd64.h)
