/**
 * @file
 * Matrix and input bit-slicing (Section 2.2.1, Figure 2).
 *
 * Matrix slicing: an N-bit signed element is split into ceil(N/M)
 * M-bit slices stored in separate arrays (M = bits per cell). We slice
 * the positive and negative parts separately so each slice is itself a
 * signed value in [-(2^M - 1), 2^M - 1] that maps directly onto a
 * differential pair; recombining slices with shift-and-add
 * (sum_s slice_s * 2^(s*M)) reconstructs the element exactly.
 *
 * Input slicing: an N-bit (two's complement) input is applied one bit
 * plane per cycle; plane i contributes with weight 2^i, and the MSB
 * plane of a signed input contributes negatively (the DCE uses SUB for
 * that plane).
 */

#ifndef DARTH_ANALOG_BITSLICING_H
#define DARTH_ANALOG_BITSLICING_H

#include <vector>

#include "common/Matrix.h"
#include "common/Types.h"

namespace darth
{
namespace analog
{

/** Number of matrix slices for the given widths. */
int numSlices(int element_bits, int bits_per_cell);

/**
 * Slice a signed matrix into per-cell code matrices.
 *
 * @param m             Signed elements, |m| < 2^element_bits.
 * @param element_bits  Logical element width (magnitude bits).
 * @param bits_per_cell Device capacity M.
 * @return              Slice s holds signed values in
 *                      [-(2^M - 1), 2^M - 1]; slice 0 is the LSB slice.
 */
std::vector<MatrixI> sliceSignedMatrix(const MatrixI &m,
                                       int element_bits,
                                       int bits_per_cell);

/** Reference recombination of sliced matrices (tests). */
MatrixI recombineSlices(const std::vector<MatrixI> &slices,
                        int bits_per_cell);

/** One input bit plane of a bit-serial MVM. */
struct InputBitPlane
{
    /** Bit index (shift weight 2^bit). */
    int bit;
    /** True for the sign plane of a two's complement input. */
    bool negate;
    /** Per-element bits (0/1). */
    std::vector<int> bits;
};

/**
 * Check that every input fits `input_bits` bits — two's complement
 * when any is negative, unsigned otherwise — and return whether any is
 * negative, i.e. whether the MSB plane subtracts. Fatal otherwise.
 */
bool checkInputRange(const std::vector<i64> &x, int input_bits);

/**
 * Decompose signed inputs into bit planes, LSB first. Values must fit
 * in `input_bits` two's complement bits (checkInputRange).
 */
std::vector<InputBitPlane> sliceInput(const std::vector<i64> &x,
                                      int input_bits);

/** Reference recombination of input planes against a matrix (tests). */
std::vector<i64> referencePlanesMvm(const std::vector<InputBitPlane> &planes,
                                    const MatrixI &m);

} // namespace analog
} // namespace darth

#endif // DARTH_ANALOG_BITSLICING_H
