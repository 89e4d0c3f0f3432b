/**
 * @file
 * Parameters of the comparison systems (Section 6).
 *
 * The paper measures its CPU and GPU baselines on real hardware with
 * performance counters; offline we model them analytically from
 * published specifications, with the offload-link constants (the
 * least-documented parameters) calibrated so the composed systems
 * land in the paper's reported ranges. Every constant is in one place
 * here so the calibration is auditable (see docs/benchmarks.md,
 * "Parameter substitutions").
 */

#ifndef DARTH_BASELINES_PARAMS_H
#define DARTH_BASELINES_PARAMS_H

#include <string>

#include "common/Types.h"

namespace darth
{
namespace baselines
{

/** General-purpose CPU parameters. */
struct CpuParams
{
    std::string name;
    double freqGHz = 3.4;
    int cores = 16;
    /** SIMD width, bits. */
    int simdBits = 256;
    double tdpWatts = 65.0;
    double dieAreaMm2 = 257.0;
    /** DRAM bandwidth, GB/s. */
    double dramGBs = 80.0;
    /** Software (table-based) AES cost, cycles per byte per core. */
    double aesSwCyclesPerByte = 12.0;
    /** AES-NI cost, cycles per byte per core. */
    double aesNiCyclesPerByte = 0.8;

    /** The evaluation CPU: Intel Core i7-13700 [50]. */
    static CpuParams
    i7_13700()
    {
        CpuParams p;
        p.name = "i7-13700";
        return p;
    }

    /** The §3 motivation CPU: 4 GHz 8-core Arm, 256-bit vectors. */
    static CpuParams
    arm8()
    {
        CpuParams p;
        p.name = "arm-8c";
        p.freqGHz = 4.0;
        p.cores = 8;
        p.tdpWatts = 30.0;
        return p;
    }
};

/** Discrete-accelerator offload link. */
struct LinkParams
{
    /**
     * One-way offload cost, ns, including the software/driver
     * overhead of a synchronous kernel launch (the dominant term for
     * layer-by-layer CNN/LLM offload; amortizable when transfers
     * batch, as in multi-stream AES).
     */
    double latencyNs = 2000.0;
    /** Sustained bandwidth, GB/s. */
    double bandwidthGBs = 16.0;
    /** Transfers batched per link round trip. */
    double batch = 1.0;

    double
    transferNs(double bytes) const
    {
        return latencyNs / batch + bytes / bandwidthGBs;
    }
};

/** Analog-only PUM accelerator (the Baseline's 1.5 GB ReRAM chip). */
struct AnalogAccelParams
{
    /** Arrays activated concurrently. */
    std::size_t parallelArrays = 1024;
    /** 64x64 arrays; one bit-serial MVM per array per pass. */
    std::size_t arrayRows = 64;
    std::size_t arrayCols = 64;
    /** Cycles per input bit plane (DAC + settle + muxed SAR ADCs). */
    double cyclesPerPlane = 10.0;
    double freqGHz = 1.0;
    /** Energy per 64-lane conversion pass, pJ. */
    double energyPerPlanePJ = 64.0 * 1.5 + 0.7 * 64.0;
};

/** GPU parameters (NVIDIA GeForce RTX 4090 [97]). */
struct GpuParams
{
    std::string name = "RTX 4090";
    double freqGHz = 2.52;
    int smCount = 128;
    double int8Tops = 330.0;       //!< dense INT8 tensor throughput
    double fp32Tflops = 82.6;
    double memBwGBs = 1008.0;
    double tdpWatts = 450.0;
    double dieAreaMm2 = 608.5;
    /** Measured-class AES throughput with cache-resident T-tables,
     *  blocks per second (§7.4: "lookup tables ... cache-resident"). */
    double aesBlocksPerSec = 1.2e10;
    /** Achievable fraction of peak INT8 on conv/attention GEMMs. */
    double gemmEfficiency = 0.45;
    /** Achievable fraction of peak on element-wise kernels
     *  (bandwidth-bound). */
    double elementEfficiency = 0.25;
};

} // namespace baselines
} // namespace darth

#endif // DARTH_BASELINES_PARAMS_H
