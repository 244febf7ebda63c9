/**
 * @file
 * Unit tests for the traffic-attribution ledger (DESIGN.md §13): the
 * per-sample decomposition into cause nodes, the bit-exact whole-run
 * conservation check, the per-kernel bottleneck aggregation, and — the
 * reason the ledger exists — a deliberately re-introduced CRM
 * double-count fixture that must be rejected by the ledger itself, not
 * by manual inspection of byte totals (the PR 5 bug class).
 */

#include <gtest/gtest.h>

#include "obs/ledger.hh"

namespace {

using namespace mflstm;
using obs::MatrixStream;
using obs::TrafficCause;
using obs::TrafficLedger;
using obs::TrafficSample;

TrafficSample
sampleSgemv()
{
    TrafficSample s;
    s.layer = 1;
    s.matrix = MatrixStream::U;
    s.kernel = "Sgemv(U_fic, h, R)";
    s.kernelClass = "Sgemv";
    s.totalDramBytes = 1000.0;
    s.weightBytes = 600.0;
    s.scaleBytes = 100.0;
    s.crmMetaBytes = 50.0;
    s.spillBytes = 0.0;
    s.timeUs = 12.5;
    s.bottleneck = "bandwidth";
    return s;
}

TEST(TrafficLedger, DecomposesSampleIntoCauseNodes)
{
    TrafficLedger ledger;
    ledger.record(sampleSgemv());

    const auto traffic = ledger.traffic();
    // weight + scale + crm + activation residual = 4 nodes.
    ASSERT_EQ(traffic.size(), 4u);

    const auto at = [&](MatrixStream m, TrafficCause c) {
        TrafficLedger::NodeKey k;
        k.layer = 1;
        k.matrix = m;
        k.kernel = "Sgemv(U_fic, h, R)";
        k.cause = c;
        const auto it = traffic.find(k);
        return it == traffic.end() ? -1.0 : it->second;
    };
    EXPECT_DOUBLE_EQ(at(MatrixStream::U, TrafficCause::Weight), 600.0);
    // The scale stream is re-labelled to its own matrix stream.
    EXPECT_DOUBLE_EQ(
        at(MatrixStream::ScaleStream, TrafficCause::Dequant), 100.0);
    EXPECT_DOUBLE_EQ(at(MatrixStream::None, TrafficCause::CrmMetadata),
                     50.0);
    // Activations get the residual: 1000 - 600 - 100 - 50.
    EXPECT_DOUBLE_EQ(at(MatrixStream::None, TrafficCause::Activation),
                     250.0);

    EXPECT_EQ(ledger.samples(), 1u);
    EXPECT_DOUBLE_EQ(ledger.attributedDramBytes(), 1000.0);
    EXPECT_TRUE(ledger.verifyConservation(1000.0).empty());
}

TEST(TrafficLedger, ZeroSubStreamsCreateNoNodes)
{
    TrafficLedger ledger;
    TrafficSample s;
    s.layer = 0;
    s.kernel = "lstm_ew";
    s.kernelClass = "ElementWise";
    s.totalDramBytes = 400.0;
    s.spillBytes = 400.0;  // everything is spill, residual is zero
    ledger.record(s);

    const auto traffic = ledger.traffic();
    ASSERT_EQ(traffic.size(), 1u);
    EXPECT_EQ(traffic.begin()->first.cause, TrafficCause::Spill);
    EXPECT_DOUBLE_EQ(traffic.begin()->second, 400.0);
}

TEST(TrafficLedger, ConservationIsBitExact)
{
    TrafficLedger ledger;
    ledger.record(sampleSgemv());
    ledger.record(sampleSgemv());

    EXPECT_TRUE(ledger.verifyConservation(2000.0).empty());
    // Off by any amount — even what an epsilon comparison would let
    // through — is a conservation failure.
    EXPECT_FALSE(ledger.verifyConservation(2000.0 + 1e-6).empty());
    EXPECT_FALSE(ledger.verifyConservation(1999.0).empty());
}

/**
 * The PR 5 bug class, reintroduced as a fixture: the lowering counted
 * the CRM relevance-flag bytes inside the kernel's DRAM total AND added
 * them again as a separate stream, inflating attribution beyond what
 * the timing model charged. The named sub-streams then exceed the
 * sample total and the activation residual goes negative — the ledger
 * must reject this on its own.
 */
TEST(TrafficLedger, RejectsCrmDoubleCountFixture)
{
    TrafficSample doubled = sampleSgemv();
    // weight 600 + scale 100 already in the total; duplicating the CRM
    // metadata stream on top of its in-total share (50 -> 350) pushes
    // the decomposition past totalDramBytes = 1000.
    doubled.crmMetaBytes += 300.0;

    TrafficLedger ledger;
    ledger.record(doubled);

    // Conservation fails even though the *total* still matches: the
    // per-sample decomposition check is what catches double-counts.
    const std::vector<std::string> errors =
        ledger.verifyConservation(1000.0);
    ASSERT_FALSE(errors.empty());
    // The violation carries the kernel so the double-count is
    // attributable without a manual byte audit.
    EXPECT_NE(errors[0].find("Sgemv(U_fic, h, R)"), std::string::npos);
}

/**
 * ISSUE 8: a persistent kernel's weight stream splits three ways —
 * first-fetch codes, first-fetch scales, and the overflow the pinned
 * budget re-streamed. The reload lands on the sample's matrix axis
 * under its own cause, and still counts toward the decomposition.
 */
TEST(TrafficLedger, AttributesResidencyReloadOnMatrixAxis)
{
    TrafficSample s;
    s.layer = 2;
    s.matrix = MatrixStream::U;
    s.kernel = "persistent(U_fico) [regfile]";
    s.kernelClass = "Persistent";
    s.totalDramBytes = 1000.0;
    s.weightBytes = 500.0;
    s.scaleBytes = 60.0;
    s.residencyReloadBytes = 340.0;

    TrafficLedger ledger;
    ledger.record(s);
    EXPECT_TRUE(ledger.verifyConservation(1000.0).empty());

    const auto traffic = ledger.traffic();
    TrafficLedger::NodeKey k;
    k.layer = 2;
    k.matrix = MatrixStream::U;
    k.kernel = s.kernel;
    k.cause = TrafficCause::ResidencyReload;
    ASSERT_TRUE(traffic.count(k));
    EXPECT_DOUBLE_EQ(traffic.at(k), 340.0);

    // Reload inflating past the total is the same double-count class
    // the ledger exists to reject.
    TrafficSample doubled = s;
    doubled.residencyReloadBytes += 200.0;
    TrafficLedger strict;
    strict.record(doubled);
    EXPECT_FALSE(
        strict.verifyConservation(doubled.totalDramBytes).empty());
}

TEST(TrafficLedger, AggregatesKernelBottlenecks)
{
    TrafficLedger ledger;
    TrafficSample a = sampleSgemv();
    TrafficSample b = sampleSgemv();
    b.bottleneck = "dequant-issue";
    TrafficSample c = sampleSgemv();
    ledger.record(a);
    ledger.record(b);
    ledger.record(c);

    const auto kernels = ledger.kernels();
    ASSERT_EQ(kernels.size(), 1u);
    const TrafficLedger::KernelStats &st = kernels.begin()->second;
    EXPECT_EQ(st.launches, 3u);
    EXPECT_DOUBLE_EQ(st.timeUs, 3 * 12.5);
    EXPECT_DOUBLE_EQ(st.dramBytes, 3000.0);
    EXPECT_EQ(st.bottlenecks.at("bandwidth"), 2u);
    EXPECT_EQ(st.bottlenecks.at("dequant-issue"), 1u);
}

TEST(TrafficLedger, EnumNamesAreStable)
{
    // The JSON schema serialises these strings; renames are breaking.
    EXPECT_STREQ(obs::toString(TrafficCause::Weight), "weight");
    EXPECT_STREQ(obs::toString(TrafficCause::Dequant), "dequant");
    EXPECT_STREQ(obs::toString(TrafficCause::Activation), "activation");
    EXPECT_STREQ(obs::toString(TrafficCause::CrmMetadata),
                 "crm-metadata");
    EXPECT_STREQ(obs::toString(TrafficCause::Spill), "spill");
    EXPECT_STREQ(obs::toString(TrafficCause::ResidencyReload),
                 "residency-reload");
    EXPECT_STREQ(obs::toString(MatrixStream::None), "none");
    EXPECT_STREQ(obs::toString(MatrixStream::W), "W");
    EXPECT_STREQ(obs::toString(MatrixStream::U), "U");
    EXPECT_STREQ(obs::toString(MatrixStream::Bias), "bias");
    EXPECT_STREQ(obs::toString(MatrixStream::ScaleStream),
                 "scale-stream");
}

} // namespace
