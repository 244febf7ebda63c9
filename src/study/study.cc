#include "study/study.hh"

#include <algorithm>
#include <stdexcept>

#include "core/controller.hh"
#include "tensor/rng.hh"

namespace mflstm {
namespace study {

std::vector<UserProfile>
samplePopulation(std::size_t n, std::uint64_t seed,
                 double baseline_accuracy)
{
    tensor::Rng rng(seed);
    std::vector<UserProfile> users;
    users.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        UserProfile u;
        u.delayReward = rng.uniform(0.9f, 2.2f);
        // Most users notice accuracy loss well before 10%; a few are
        // tolerant, a few are strict — the paper's observation that
        // "most users are not willing to trade much accuracy".
        u.accuracyPenalty = rng.uniform(0.15f, 0.6f);
        // Personal accuracy floor between "2% loss is fine" and
        // "6% loss is fine", anchored to the app's baseline accuracy.
        const double tolerated_loss = rng.uniform(0.02f, 0.06f);
        u.minAccuracy = baseline_accuracy - tolerated_loss;
        u.seed = rng.engine()();
        users.push_back(u);
    }
    return users;
}

double
satisfactionScore(const UserProfile &user, double speedup, double accuracy,
                  double baseline_accuracy, double noise)
{
    // Relative delay reduction in [0, 1): 1 - 1/speedup.
    const double delay_gain =
        speedup >= 1.0 ? 1.0 - 1.0 / speedup : -(1.0 / speedup - 1.0);
    const double loss_pct =
        std::max(0.0, (baseline_accuracy - accuracy) * 100.0);

    const double raw = 3.0 + user.delayReward * delay_gain * 2.0 -
                       user.accuracyPenalty * loss_pct + noise;
    return std::clamp(raw, 1.0, 5.0);
}

StudyResult
runUserStudy(const std::vector<core::OperatingPoint> &points,
             double baseline_accuracy, std::size_t ao_index,
             std::size_t bpa_index, const ReplayConfig &cfg)
{
    if (points.empty())
        throw std::invalid_argument("runUserStudy: no points");
    if (ao_index >= points.size() || bpa_index >= points.size())
        throw std::out_of_range("runUserStudy: bad scheme index");

    const std::vector<UserProfile> users =
        samplePopulation(cfg.users, cfg.seed, baseline_accuracy);

    StudyResult result;
    std::array<double, 4> sums{};
    std::array<std::size_t, 4> counts{};

    for (const UserProfile &user : users) {
        tensor::Rng noise_rng(user.seed);

        for (std::size_t s = 0; s < 4; ++s) {
            const auto scheme = static_cast<Scheme>(s);

            // UO runs the online feedback controller across this
            // user's replays ("dynamically adjusts the thresholds...
            // taking each individual user's preferences as the user
            // input"). The preference the user reports is the accuracy
            // level they actually like best — the noise-free
            // satisfaction optimum over the curve — and the controller
            // walks the ladder toward it online.
            double preferred = user.minAccuracy;
            double best_sat = -1.0;
            for (const core::OperatingPoint &pt : points) {
                const double sat = satisfactionScore(
                    user, pt.speedup, pt.accuracy, baseline_accuracy,
                    0.0);
                if (sat > best_sat) {
                    best_sat = sat;
                    preferred = pt.accuracy;
                }
            }
            // The stated preference seeds the starting rung; the
            // controller then only fine-tunes online (25 replays are
            // far too few to explore the ladder from scratch).
            core::ControllerConfig ctrl_cfg;
            ctrl_cfg.climbMargin = 0.002;
            // Deadband below the preference: a single noisy rating
            // must not bounce the operating point off the optimum.
            ctrl_cfg.backoffMargin = 0.004;
            ctrl_cfg.initialIndex =
                core::selectForPreference(points, preferred);
            core::UserOrientedController controller(
                points.size(), preferred, ctrl_cfg);

            if (scheme == Scheme::Uo) {
                // Unrated warm-up: the controller converges before the
                // rated replays begin.
                for (std::size_t r = 0; r < cfg.uoWarmupReplays; ++r) {
                    controller.observe(
                        points[controller.currentIndex()].accuracy);
                }
            }

            for (std::size_t r = 0; r < cfg.replaysPerScheme; ++r) {
                std::size_t idx;
                switch (scheme) {
                  case Scheme::Baseline:
                    idx = 0;
                    break;
                  case Scheme::Ao:
                    idx = ao_index;
                    break;
                  case Scheme::Bpa:
                    idx = bpa_index;
                    break;
                  case Scheme::Uo:
                  default:
                    idx = controller.currentIndex();
                    break;
                }
                const core::OperatingPoint &pt = points[idx];

                const double noise = noise_rng.normal(
                    0.0f, static_cast<float>(cfg.ratingNoiseSigma));
                sums[s] += satisfactionScore(user, pt.speedup,
                                             pt.accuracy,
                                             baseline_accuracy, noise);
                ++counts[s];

                if (scheme == Scheme::Uo) {
                    // Fig. 10 op 3: the adjustment input is the
                    // *measured* output accuracy vs the preference.
                    controller.observe(pt.accuracy);
                }
            }
        }
    }

    for (std::size_t s = 0; s < 4; ++s)
        result.meanScore[s] =
            counts[s] ? sums[s] / static_cast<double>(counts[s]) : 0.0;
    return result;
}

} // namespace study
} // namespace mflstm
