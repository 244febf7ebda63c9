/**
 * @file
 * User-study simulation (Section VI-E). The paper recruits 30
 * participants, replays application outputs with scheme-dependent
 * response delays and accuracies, and collects 1-5 satisfaction scores
 * for four schemes: Baseline, AO, BPA and the user-oriented UO scheme
 * that tunes thresholds per participant. We substitute a parameterised
 * synthetic population: each user trades response delay against output
 * accuracy with their own sensitivities, plus rating noise.
 */

#ifndef MFLSTM_STUDY_STUDY_HH
#define MFLSTM_STUDY_STUDY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/thresholds.hh"

namespace mflstm {
namespace study {

/** The four schemes compared in Fig. 18 (replay order is randomised). */
enum class Scheme { Baseline, Ao, Bpa, Uo };

/** One synthetic participant. */
struct UserProfile
{
    /// satisfaction points gained per unit of relative delay reduction
    double delayReward = 1.6;
    /// satisfaction points lost per percent of accuracy loss
    double accuracyPenalty = 0.35;
    /// the accuracy floor the user would pick if asked (drives UO)
    double minAccuracy = 0.0;
    std::uint64_t seed = 0;
};

/** Draw a heterogeneous population (the paper's 30 campus recruits). */
std::vector<UserProfile> samplePopulation(std::size_t n,
                                          std::uint64_t seed,
                                          double baseline_accuracy);

/**
 * Satisfaction of one replay, 1..5: a neutral 3.0 baseline, plus the
 * delay reward relative to the baseline delay, minus the accuracy
 * penalty relative to the baseline accuracy, plus rating noise.
 */
double satisfactionScore(const UserProfile &user, double speedup,
                         double accuracy, double baseline_accuracy,
                         double noise);

/** Configuration of the replay program. */
struct ReplayConfig
{
    std::size_t users = 30;
    std::size_t replaysPerScheme = 25;  ///< 100 replays over 4 schemes
    /**
     * Unrated interactions before the UO scheme's rated replays: the
     * paper replays pre-produced outputs at the *selected* thresholds,
     * i.e. after its per-user tuning has already converged.
     */
    std::size_t uoWarmupReplays = 15;
    std::uint64_t seed = 2018;
    double ratingNoiseSigma = 0.35;
};

/** Mean satisfaction per scheme (the Fig. 18 bars). */
struct StudyResult
{
    std::array<double, 4> meanScore{};  // indexed by Scheme

    double score(Scheme s) const
    {
        return meanScore[static_cast<std::size_t>(s)];
    }
};

/**
 * Run the full study over an evaluated threshold ladder.
 *
 * @param points            the Fig. 19 trade-off points (speedup +
 *                          accuracy per threshold set, set 0 = baseline).
 * @param baseline_accuracy accuracy at threshold set 0.
 * @param ao_index/bpa_index the AO/BPA ladder positions.
 */
StudyResult runUserStudy(const std::vector<core::OperatingPoint> &points,
                         double baseline_accuracy, std::size_t ao_index,
                         std::size_t bpa_index,
                         const ReplayConfig &cfg = {});

} // namespace study
} // namespace mflstm

#endif // MFLSTM_STUDY_STUDY_HH
