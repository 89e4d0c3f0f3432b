/**
 * @file
 * Chip-level configuration, area, and power models (Tables 2 and 3).
 *
 * All constants are taken from the paper: a 1 GHz clock, 64x64 ReRAM
 * arrays, 64 pipelines x 64 arrays per DCE, 64 arrays per ACE, SAR
 * (2 per HCT, 1-cycle) or ramp (1 per HCT, 256-cycle) ADCs, the
 * Table 3 component areas in square microns at 15 nm, and the 2.57 cm^2
 * iso-area budget of the Intel i7-13700 comparison die.
 */

#ifndef DARTH_MODEL_PARAMS_H
#define DARTH_MODEL_PARAMS_H

#include <cstddef>

#include "analog/Adc.h"
#include "common/Types.h"

namespace darth
{
namespace model
{

/** Clock frequency of the DARTH-PUM chip, GHz (cycles per ns). */
constexpr double kClockGHz = 1.0;

/** Iso-area budget: die area of the baseline CPU, um^2 (2.57 cm^2). */
constexpr SquareMicron kIsoAreaBudget = 2.57e8;

/** Table 2: geometry of one hybrid compute tile. */
struct HctGeometry
{
    // Digital compute element.
    std::size_t dcePipelines = 64;
    std::size_t dcePipelineDepth = 64;   //!< arrays per pipeline
    std::size_t dceArrayRows = 64;
    std::size_t dceArrayCols = 64;

    // Analog compute element.
    std::size_t aceArrays = 64;
    std::size_t aceArrayRows = 64;
    std::size_t aceArrayCols = 64;

    /**
     * ADC instances per ACE. Table 2 lists 2 SAR converters, but the
     * 8 B/cycle ACE->DCE network is "chosen to rate-match ADC
     * throughput with DCE write bandwidth" (§4), which needs 8
     * one-cycle 8-bit conversions per cycle; we adopt 8 (see
     * docs/benchmarks.md, "Parameter substitutions").
     */
    std::size_t
    numAdcs(analog::AdcKind kind) const
    {
        return kind == analog::AdcKind::Sar ? 8 : 1;
    }

    /** Bits of storage in one HCT (DCE + ACE arrays). */
    u64
    bitsPerHct() const
    {
        const u64 dce = static_cast<u64>(dcePipelines) *
                        dcePipelineDepth * dceArrayRows * dceArrayCols;
        const u64 ace = static_cast<u64>(aceArrays) * aceArrayRows *
                        aceArrayCols;
        return dce + ace;
    }
};

/** Table 3: per-component areas, um^2 (15 nm). */
struct AreaModel
{
    // DCE side.
    SquareMicron dceReramArray = 240;      //!< per-DCE array stack
    SquareMicron pipelineControl = 74000;
    SquareMicron ioCtrl = 9600;
    SquareMicron decodeAndDrive = 280;
    SquareMicron pipelineSelect = 64;

    // ACE side.
    SquareMicron aceReramArray = 240;
    SquareMicron inputBuffers = 27000;
    SquareMicron rowPeriphery = 13000;
    SquareMicron sarAdc = 600;
    SquareMicron rampAdc = 3800;
    SquareMicron sampleHold = 62;

    // HCT-level coordination hardware.
    SquareMicron shiftUnit = 946;
    SquareMicron adArbiter = 0.6;
    SquareMicron transposeUnit = 1760;
    SquareMicron instrInjectionUnit = 42;

    /** Front end, shared by 8 HCTs. */
    SquareMicron frontEnd = 87000;
    std::size_t hctsPerFrontEnd = 8;

    /** CMOS area of one DCE (ReRAM arrays sit above the logic). */
    SquareMicron dceArea() const;

    /** CMOS area of one ACE with the given ADC kind. */
    SquareMicron aceArea(analog::AdcKind kind,
                         std::size_t num_adcs) const;

    /** Full HCT area including its share of a front end. */
    SquareMicron hctArea(analog::AdcKind kind,
                         std::size_t num_adcs) const;

    /** HCTs that fit in an area budget. */
    std::size_t isoAreaHctCount(analog::AdcKind kind,
                                std::size_t num_adcs,
                                SquareMicron budget = kIsoAreaBudget)
        const;
};

/** Table 3: per-component power, converted to pJ/cycle at 1 GHz. */
struct PowerModel
{
    double arrayBoolOpPJ = 8.0;        //!< per in-array Boolean op
    double pipelineCtrlPJ = 1.6;       //!< per pipeline-active cycle
    double rowPeripheryPJ = 0.7;       //!< per wordline drive
    double sarAdcPJ = 1.5;             //!< per conversion
    double rampAdcPerCyclePJ = 1.2;    //!< per sweep cycle
    double sampleHoldPJ = 2.1e-5;      //!< per capture
    double frontEndMw = 63.0;          //!< shared by 8 HCTs

    /** Front-end energy attributed to one HCT over `cycles`. */
    double
    frontEndEnergyPJ(Cycle cycles, std::size_t hcts_per_front_end = 8)
        const
    {
        return frontEndMw / static_cast<double>(hcts_per_front_end) *
               static_cast<double>(cycles);
    }
};

/** Full-chip derivation used by the iso-area benches. */
struct ChipModel
{
    HctGeometry geometry;
    AreaModel area;
    PowerModel power;
    analog::AdcKind adc = analog::AdcKind::Sar;

    /** HCTs in the iso-area budget (paper: 1860 SAR / 1660 ramp). */
    std::size_t hctCount() const;

    /** Total memory capacity, bytes (paper: 4.1 GB / 3.7 GB). */
    double capacityBytes() const;
};

/**
 * Functional tile count for `adc` at iso-area with a SAR chip of
 * `sar_hcts` functionally instantiated tiles: the Fig. 17 iso-area
 * derivation scaled down to a simulable chip. The slot's area
 * budget is what `sar_hcts` SAR tiles occupy (Table 3 areas); the
 * other ADC kind packs as many of its bigger tiles as fit that
 * budget — so a ramp chip carries fewer tiles, exactly as the
 * full-die 1860-SAR-class vs 1660-ramp-class counts do. Never
 * returns 0.
 */
std::size_t isoAreaScaledHcts(analog::AdcKind adc,
                              std::size_t sar_hcts);

} // namespace model
} // namespace darth

#endif // DARTH_MODEL_PARAMS_H
