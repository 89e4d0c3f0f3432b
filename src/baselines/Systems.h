/**
 * @file
 * Composed comparison systems (Section 6): Baseline (CPU + analog
 * PUM accelerator), GPU, and the per-application AppAccel designs.
 *
 * Each system exposes per-application throughput (work items per
 * second), energy (joules per work item), and — for AES — the
 * per-kernel latency breakdown of Figure 14. Work items: AES = one
 * 16 B block; CNN = one ResNet-20 inference; LLM = one encoder-layer
 * pass over the configured sequence.
 */

#ifndef DARTH_BASELINES_SYSTEMS_H
#define DARTH_BASELINES_SYSTEMS_H

#include <vector>

#include "apps/aes/AesPum.h"
#include "apps/cnn/Layers.h"
#include "apps/llm/Encoder.h"
#include "baselines/Params.h"

namespace darth
{
namespace baselines
{

/** Nanosecond-domain AES kernel breakdown (Figure 14). */
struct AesBreakdownNs
{
    double dataMovement = 0.0;
    double subBytes = 0.0;
    double shiftRows = 0.0;
    double mixColumns = 0.0;
    double addRoundKey = 0.0;

    double
    total() const
    {
        return dataMovement + subBytes + shiftRows + mixColumns +
               addRoundKey;
    }
};

/** Analytical CPU model. */
class CpuModel
{
  public:
    explicit CpuModel(const CpuParams &params) : p_(params) {}

    const CpuParams &params() const { return p_; }

    /** All-core software (table-based) AES throughput. */
    double aesSwBlocksPerSec() const;
    /** All-core AES-NI throughput. */
    double aesNiBlocksPerSec() const;
    double aesSwJoulesPerBlock() const;
    double aesNiJoulesPerBlock() const;

    /** SIMD int8 element operations per second (all cores). */
    double vectorOpsPerSec() const;
    /** Int8 MACs per second on GEMM kernels (all cores). */
    double macsPerSec() const;

  private:
    CpuParams p_;
};

/** Analog-only PUM accelerator model (MVM only; no general logic). */
class AnalogAccelModel
{
  public:
    explicit AnalogAccelModel(const AnalogAccelParams &params)
        : p_(params)
    {}

    const AnalogAccelParams &params() const { return p_; }

    /** Seconds for one (rows x cols) MVM with bit-serial inputs. */
    double mvmSeconds(std::size_t rows, std::size_t cols,
                      int input_bits) const;
    double mvmJoules(std::size_t rows, std::size_t cols,
                     int input_bits) const;
    /** Aggregate MAC rate with all arrays busy. */
    double macsPerSec(int input_bits) const;

  private:
    AnalogAccelParams p_;
};

/** The paper's Baseline: CPU + analog PUM accelerator over a link. */
class BaselineSystem
{
  public:
    BaselineSystem(const CpuParams &cpu, const AnalogAccelParams &accel,
                   const LinkParams &link)
        : cpu_(cpu), accel_(accel), link_(link)
    {}

    const CpuModel &cpu() const { return cpu_; }

    // ---- AES --------------------------------------------------------
    AesBreakdownNs aesBreakdownNs() const;
    double aesBlocksPerSec() const;
    double aesJoulesPerBlock() const;

    // ---- ResNet-20 --------------------------------------------------
    double cnnLayerSeconds(const cnn::LayerStats &layer) const;
    double cnnInferSeconds(const std::vector<cnn::LayerStats> &layers)
        const;
    double cnnInfersPerSec(const std::vector<cnn::LayerStats> &layers)
        const;
    double cnnJoulesPerInfer(const std::vector<cnn::LayerStats> &layers)
        const;

    // ---- LLM encoder ------------------------------------------------
    double llmEncodeSeconds(const llm::EncoderStats &stats) const;
    double llmEncodesPerSec(const llm::EncoderStats &stats) const;
    double llmJoulesPerEncode(const llm::EncoderStats &stats) const;

  private:
    CpuModel cpu_;
    AnalogAccelModel accel_;
    LinkParams link_;
};

/** RTX-4090-class GPU model. */
class GpuModel
{
  public:
    explicit GpuModel(const GpuParams &params) : p_(params) {}

    const GpuParams &params() const { return p_; }

    double aesBlocksPerSec() const { return p_.aesBlocksPerSec; }
    double aesJoulesPerBlock() const;

    double cnnInfersPerSec(const std::vector<cnn::LayerStats> &layers)
        const;
    double cnnJoulesPerInfer(const std::vector<cnn::LayerStats> &layers)
        const;

    double llmEncodesPerSec(const llm::EncoderStats &stats) const;
    double llmJoulesPerEncode(const llm::EncoderStats &stats) const;

  private:
    double gemmSeconds(u64 macs) const;
    double elementSeconds(u64 ops) const;

    GpuParams p_;
};

/**
 * Application-specific accelerators (Section 6):
 *  - AES: Intel AES-NI [115] on the baseline CPU.
 *  - ResNet-20: ramp-ADC analog CNN accelerator with SFUs [150].
 *  - LLM: ISAAC-style [122] chip with transformer SFUs [125].
 */
class AppAccelModels
{
  public:
    AppAccelModels(const CpuParams &cpu, const AnalogAccelParams &accel);

    double aesBlocksPerSec() const;
    double aesJoulesPerBlock() const;

    double cnnInfersPerSec(const std::vector<cnn::LayerStats> &layers)
        const;
    double cnnJoulesPerInfer(const std::vector<cnn::LayerStats> &layers)
        const;

    double llmEncodesPerSec(const llm::EncoderStats &stats) const;
    double llmJoulesPerEncode(const llm::EncoderStats &stats) const;

    /** Fraction of chip area spent on SFUs (reduces parallelism). */
    static constexpr double kSfuAreaFraction = 0.45;

  private:
    CpuModel cpu_;
    AnalogAccelModel accel_;
};

} // namespace baselines
} // namespace darth

#endif // DARTH_BASELINES_SYSTEMS_H
