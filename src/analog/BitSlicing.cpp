#include "analog/BitSlicing.h"

#include <cmath>

#include "common/Logging.h"

namespace darth
{
namespace analog
{

int
numSlices(int element_bits, int bits_per_cell)
{
    if (element_bits <= 0 || bits_per_cell <= 0)
        darth_fatal("numSlices: widths must be positive");
    return (element_bits + bits_per_cell - 1) / bits_per_cell;
}

std::vector<MatrixI>
sliceSignedMatrix(const MatrixI &m, int element_bits, int bits_per_cell)
{
    const int slices = numSlices(element_bits, bits_per_cell);
    const i64 limit = i64{1} << element_bits;
    const i64 mask = (i64{1} << bits_per_cell) - 1;

    std::vector<MatrixI> out(
        static_cast<std::size_t>(slices),
        MatrixI(m.rows(), m.cols()));
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            const i64 v = m(r, c);
            if (std::abs(v) >= limit)
                darth_fatal("sliceSignedMatrix: |", v, "| exceeds ",
                            element_bits, "-bit magnitude");
            const i64 pos = std::max<i64>(v, 0);
            const i64 neg = std::max<i64>(-v, 0);
            for (int s = 0; s < slices; ++s) {
                const i64 p = (pos >> (s * bits_per_cell)) & mask;
                const i64 n = (neg >> (s * bits_per_cell)) & mask;
                out[static_cast<std::size_t>(s)](r, c) = p - n;
            }
        }
    }
    return out;
}

MatrixI
recombineSlices(const std::vector<MatrixI> &slices, int bits_per_cell)
{
    if (slices.empty())
        darth_fatal("recombineSlices: no slices");
    MatrixI out(slices[0].rows(), slices[0].cols());
    for (std::size_t s = 0; s < slices.size(); ++s) {
        const i64 weight = i64{1}
                           << (static_cast<int>(s) * bits_per_cell);
        for (std::size_t r = 0; r < out.rows(); ++r)
            for (std::size_t c = 0; c < out.cols(); ++c)
                out(r, c) += slices[s](r, c) * weight;
    }
    return out;
}

bool
checkInputRange(const std::vector<i64> &x, int input_bits)
{
    if (input_bits <= 0 || input_bits > 63)
        darth_fatal("sliceInput: input_bits must be in [1, 63]");
    const i64 lo = -(i64{1} << (input_bits - 1));
    const i64 hi = (i64{1} << (input_bits - 1)) - 1;
    const bool any_negative = [&x] {
        for (i64 v : x)
            if (v < 0)
                return true;
        return false;
    }();
    for (i64 v : x)
        if (v < lo ||
            (any_negative ? v > hi : v >= (i64{1} << input_bits)))
            darth_fatal("sliceInput: ", v, " outside ", input_bits,
                        "-bit range");
    return any_negative;
}

std::vector<InputBitPlane>
sliceInput(const std::vector<i64> &x, int input_bits)
{
    const bool any_negative = checkInputRange(x, input_bits);
    std::vector<InputBitPlane> planes;
    planes.reserve(static_cast<std::size_t>(input_bits));
    for (int bit = 0; bit < input_bits; ++bit) {
        InputBitPlane plane;
        plane.bit = bit;
        plane.negate = any_negative && bit == input_bits - 1;
        plane.bits.reserve(x.size());
        for (i64 v : x)
            plane.bits.push_back(
                static_cast<int>((static_cast<u64>(v) >> bit) & 1ULL));
        planes.push_back(std::move(plane));
    }
    return planes;
}

std::vector<i64>
referencePlanesMvm(const std::vector<InputBitPlane> &planes,
                   const MatrixI &m)
{
    std::vector<i64> out(m.cols(), 0);
    for (const auto &plane : planes) {
        if (plane.bits.size() != m.rows())
            darth_fatal("referencePlanesMvm: plane length mismatch");
        const i64 weight = (plane.negate ? -1 : 1) *
                           (i64{1} << plane.bit);
        for (std::size_t c = 0; c < m.cols(); ++c) {
            i64 acc = 0;
            for (std::size_t r = 0; r < m.rows(); ++r)
                acc += static_cast<i64>(plane.bits[r]) * m(r, c);
            out[c] += acc * weight;
        }
    }
    return out;
}

} // namespace analog
} // namespace darth
