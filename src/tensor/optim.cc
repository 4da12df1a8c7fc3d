#include "tensor/optim.h"

#include <cmath>

#include "obs/mem_profiler.h"
#include "support/parallel.h"
#include "tensor/kernels.h"

namespace slapo {

namespace {

/** Elements per AdamW chunk: amortizes pool dispatch over ~0.5 MB of
 * parameter and state traffic. */
constexpr int64_t kAdamWGrain = 1 << 14;

} // namespace

size_t
AdamW::addParam(Tensor param)
{
    SLAPO_CHECK(param.materialized(), "AdamW: cannot optimize meta tensors");
    params_.push_back(param);
    chunk_squares_.resize(chunk_squares_.size() +
                          static_cast<size_t>(support::chunkCountFor(
                              0, param.numel(), kAdamWGrain)));
    obs::MemCategoryScope mem_cat(obs::MemCategory::OptimizerState);
    m_.push_back(Tensor::zeros(param.shape()));
    v_.push_back(Tensor::zeros(param.shape()));
    return params_.size() - 1;
}

double
AdamW::step(const std::vector<Tensor>& grads)
{
    SLAPO_CHECK(grads.size() == params_.size(),
                "AdamW: expected " << params_.size() << " gradients, got "
                                   << grads.size());
    ++step_count_;
    const kernels::AdamWStep hp{
        config_.lr,
        config_.beta1,
        config_.beta2,
        config_.eps,
        config_.weight_decay,
        1.0f - std::pow(config_.beta1, static_cast<float>(step_count_)),
        1.0f - std::pow(config_.beta2, static_cast<float>(step_count_)),
    };
    const auto update = kernels::kernels().adamw;

    double* sums = chunk_squares_.data();
    for (size_t i = 0; i < params_.size(); ++i) {
        Tensor& p = params_[i];
        const Tensor& g = grads[i];
        SLAPO_CHECK(g.shape() == p.shape(),
                    "AdamW: gradient shape mismatch at param " << i);
        float* pp = p.data();
        const float* pg = g.data();
        float* pm = m_[i].data();
        float* pv = v_[i].data();
        // Elementwise, so fixed-size chunks give the same bits at any
        // thread count; each chunk writes its own sum of g^2.
        support::parallelFor(0, p.numel(), kAdamWGrain,
                             [&](int64_t lo, int64_t hi) {
            sums[lo / kAdamWGrain] =
                update(hp, pp + lo, pg + lo, pm + lo, pv + lo, hi - lo);
        });
        sums += support::chunkCountFor(0, p.numel(), kAdamWGrain);
    }
    double sum = 0.0;
    for (double s : chunk_squares_) sum += s;
    return std::sqrt(sum);
}

} // namespace slapo
