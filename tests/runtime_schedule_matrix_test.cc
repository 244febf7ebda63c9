/**
 * @file
 * Exhaustive property test of the LayerSchedule::validate() rejection
 * matrix (ISSUE 8): every combination of (tissue schedule x skip path x
 * skip fraction x flag fusion x precision x CSR x prune fraction x
 * residency) is classified by an INDEPENDENT re-statement of the
 * documented rules, then checked against validate() — invalid points
 * must throw with the documented reason, valid points must also lower
 * end-to-end without throwing. A rule added to validate() without a
 * matching rule here (or vice versa) fails the whole matrix.
 */

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "gpu/config.hh"
#include "runtime/lowering.hh"
#include "runtime/plan.hh"
#include "runtime/schedule.hh"

namespace mflstm {
namespace runtime {
namespace {

/**
 * The documented rule table, re-stated independently of schedule.cc and
 * evaluated in the same order validate() documents: returns the
 * distinctive substring of the expected error, or nullopt when the
 * combination is executable.
 */
std::optional<std::string>
expectedRejection(const LayerSchedule &ls)
{
    const bool tissues = ls.usesTissues();
    const bool skip_active =
        ls.skipPath != SkipPath::Off && ls.skipFraction > 0.0;

    // Rule 1-2: fractions finite and within [0, 1].
    if (ls.skipFraction < 0.0 || ls.skipFraction > 1.0)
        return "skipFraction outside";
    if (ls.pruneFraction < 0.0 || ls.pruneFraction > 1.0)
        return "pruneFraction outside";
    // Rule 3: the CRM consumes raw flags from the fused U_o epilogue.
    if (ls.skipPath == SkipPath::HwCrm &&
        ls.flagFusion != FlagFusion::FusedEpilogue)
        return "hw-crm requires fused-epilogue";
    // Rule 4: DRS inside a tissue dispatches through the CRM.
    if (tissues && skip_active && ls.skipPath != SkipPath::HwCrm)
        return "tissues + skip require hw-crm";
    // Rule 5: the CSR comparator composes with nothing and stays fp32.
    if (ls.prunedCsr) {
        if (!ls.tissueSizes.empty() || ls.skipPath != SkipPath::Off)
            return "composes with neither tissues nor DRS";
        if (ls.quant != quant::QuantMode::Fp32)
            return "defined on fp32";
    } else if (ls.pruneFraction != 0.0) {
        // Rule 6: a prune level is meaningless outside the CSR flow.
        return "pruneFraction without the prunedCsr flow";
    }
    // Rule 7: a persistent layer launches once — DRS re-dispatch and
    // the CSR gather layout are both incompatible with residency.
    if (ls.residency != WeightResidency::None) {
        if (ls.skipPath != SkipPath::Off)
            return "residency requires skipPath off";
        if (ls.prunedCsr)
            return "residency excludes prunedCsr";
    }
    return std::nullopt;
}

TEST(ScheduleMatrix, EveryCombinationValidatesOrRejectsAsDocumented)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const Lowering lowering(cfg);
    // Length 12 so the {4,4,4} tissue schedule covers every cell.
    const NetworkShape shape = NetworkShape::stacked(32, 64, 1, 12);

    const std::vector<std::size_t> tissue_opts[] = {{}, {4, 4, 4}};
    const SkipPath paths[] = {SkipPath::Off, SkipPath::Software,
                              SkipPath::HwCrm};
    const double skip_fracs[] = {0.0, 0.4};
    const FlagFusion fusions[] = {FlagFusion::Standalone,
                                  FlagFusion::FusedEpilogue};
    const quant::QuantMode quants[] = {quant::QuantMode::Fp32,
                                       quant::QuantMode::Int8,
                                       quant::QuantMode::Int4};
    const bool csr_opts[] = {false, true};
    const double prune_fracs[] = {0.0, 0.37};
    const WeightResidency residencies[] = {WeightResidency::None,
                                           WeightResidency::Shared,
                                           WeightResidency::Regfile};

    std::size_t total = 0, valid = 0, rejected = 0;
    for (const auto &tissue : tissue_opts)
    for (SkipPath path : paths)
    for (double skip : skip_fracs)
    for (FlagFusion fusion : fusions)
    for (quant::QuantMode qm : quants)
    for (bool csr : csr_opts)
    for (double prune : prune_fracs)
    for (WeightResidency res : residencies) {
        ++total;
        LayerSchedule ls;
        ls.tissueSizes = tissue;
        ls.skipPath = path;
        ls.skipFraction = skip;
        ls.flagFusion = fusion;
        ls.quant = qm;
        ls.prunedCsr = csr;
        ls.pruneFraction = prune;
        ls.residency = res;

        const std::string label =
            std::string(tissue.empty() ? "dense" : "tissues") + "/" +
            "skip" + std::to_string(static_cast<int>(path)) + "/f" +
            std::to_string(skip) + "/fusion" +
            std::to_string(static_cast<int>(fusion)) + "/" +
            quant::toString(qm) +
            (csr ? "/csr" : "") + "/p" + std::to_string(prune) + "/" +
            toString(res);
        SCOPED_TRACE(label);

        const std::optional<std::string> want = expectedRejection(ls);
        if (want) {
            ++rejected;
            try {
                ls.validate();
                ADD_FAILURE() << "accepted; expected: " << *want;
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(*want),
                          std::string::npos)
                    << "rejected for the wrong reason: " << e.what();
            }
        } else {
            ++valid;
            ASSERT_NO_THROW(ls.validate());
            // Valid decisions must also be executable: lower the full
            // network through the explicit-decision path.
            ScheduleDecisions d;
            d.layers.push_back(ls);
            ASSERT_NO_THROW((void)lowering.lower(
                shape, ExecutionPlan::fromDecisions(d), 1));
        }
    }

    // The matrix is meaningful only if both classes are well populated
    // and every combination was visited.
    EXPECT_EQ(total, 864u);
    EXPECT_EQ(valid + rejected, total);
    EXPECT_GT(valid, 100u);
    EXPECT_GT(rejected, 100u);
}

/** Fuzz the numeric edges the enumerated grid cannot reach. */
TEST(ScheduleMatrix, NonFiniteAndOutOfRangeFractionsRejected)
{
    for (double bad :
         {-0.1, 1.1, std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
        LayerSchedule skip;
        skip.skipPath = SkipPath::Software;
        skip.skipFraction = bad;
        EXPECT_THROW(skip.validate(), std::invalid_argument);

        LayerSchedule prune;
        prune.prunedCsr = true;
        prune.pruneFraction = bad;
        EXPECT_THROW(prune.validate(), std::invalid_argument);
    }
}

} // namespace
} // namespace runtime
} // namespace mflstm
