#!/usr/bin/env bash
# Run the README walkthrough, two 200x200 datagens (with the walkthrough's
# model and with the default paper-size one), a training on the first of them
# with a reconstruction and an eval of one 200x200 face, and `synthface
# defaults` with the synthface package of the checkout SRC_DIR, writing into
# OUT_DIR (which must not exist yet), then print one "sha256  path" line for
# every file written.  Every step is a `synthface` subcommand.  The first
# steps are the `sh` block of SRC_DIR's README "Command-line walkthrough",
# run as written.  Their stdout is saved as walkthrough.stdout, and that of
# the 200x200 eval and of `defaults` as eval200.stdout and defaults.stdout,
# so it is covered too.  BLAS and OpenMP run one thread each.  Run each
# checkout's own copy of this tool, since the steps use the subcommands of
# the checkout they run on.  Compare only two runs on one machine: a trained
# predictor's bytes, and so the reconstruction and eval files made from it,
# move with the machine's BLAS kernels.
#
#   ../parent/tools/walkthrough_digests.sh ../parent out_parent > parent.txt
#   tools/walkthrough_digests.sh           .         out_change > change.txt
#   diff parent.txt change.txt     # no output: both wrote the same bytes
set -euo pipefail
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC_DIR OUT_DIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir "$2"
cd "$2"
export PYTHONPATH="$src/src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

synthface() { python3 -m synthface.cli "$@"; }

# the README's walkthrough block, whose steps call the function above
source <(sed -n '/^## Command-line walkthrough/,/^## /p' "$src/README.md" |
    sed -n '/^```sh$/,/^```$/{/^```/!p;}') > walkthrough.stdout
# the benchmark's image size, so that a rasterizer change seen only at 200x200
# shows too
synthface datagen --model model.mfm --out data200 --seed 0 --count 20 \
    --width 200 --height 200 > /dev/null
# the paper-size default model, whose faces fold over themselves at 200x200,
# so that the depth resolve of contested pixels shows too
synthface model-gen --out model_default.mfm > /dev/null
synthface datagen --model model_default.mfm --out data_default200 --seed 0 \
    --count 20 --width 200 --height 200 > /dev/null
# 20 samples against 1,291 inputs at 200x200: the ridge solve with fewer
# samples than inputs, which the 300-sample 64x64 training above does not reach
synthface train --model model.mfm --dataset data200 --out predictor200.prd \
    --ridge 1.0 > /dev/null
# the IEF loop and its pooling at the benchmark's image size
synthface eval-inputs --model model.mfm --out eval_inputs200 \
    --seed 124 --width 200 --height 200 > /dev/null
synthface reconstruct --model model.mfm --predictor predictor200.prd \
    --image eval_inputs200/face.pgm --pose-file eval_inputs200/pose.txt \
    --out recon200 > /dev/null
synthface eval --model model.mfm --gt-coeffs eval_inputs200/gt.bin \
    --ief-coeffs recon200/coefficients.bin \
    --pose-file eval_inputs200/pose.txt --out report200 > eval200.stdout
synthface defaults > defaults.stdout

find . -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum
