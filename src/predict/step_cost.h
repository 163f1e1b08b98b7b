/**
 * @file
 * The predictor interface the serving control plane consumes: a
 * StepCostOracle prices one batched decode step at a (placement, context,
 * depth) point. Two providers exist —
 *
 *  - the calibrated cost plane (ServingCostModel, src/serving/cost_model.h)
 *    forwarding to the engine's DecodeStepMs decomposition, and
 *  - PredictedStepCosts here, backed by a fitted LatencyModel's sim-plane
 *    decode-step classes.
 *
 * PredictedPlacement holds whichever oracle it was built with;
 * the serving simulator always *prices* executed steps through the
 * calibrated provider, so a mispredicting model can only misplace work,
 * never rewrite virtual time.
 */
#ifndef LLMNPU_PREDICT_STEP_COST_H
#define LLMNPU_PREDICT_STEP_COST_H

#include <cstdint>

#include "src/model/placement.h"
#include "src/predict/latency_model.h"

namespace llmnpu {
namespace predict {

/** Prices one continuously batched decode step. */
class StepCostOracle
{
  public:
    virtual ~StepCostOracle() = default;

    /** Service time (ms) of one decode step with `batch` members at
     *  context length `ctx`, every member placed on `placement`. */
    virtual double StepMs(DecodePlacement placement, int64_t ctx,
                          int batch) const = 0;

    /** Per-token price at depth `batch` — the currency the placement
     *  crossover is decided in. */
    double StepTokenMs(DecodePlacement placement, int64_t ctx,
                       int batch) const
    {
        return StepMs(placement, ctx, batch) /
               static_cast<double>(batch > 0 ? batch : 1);
    }
};

/** StepCostOracle over a fitted LatencyModel (kDecodeStepCpu/Npu classes
 *  must be fitted). The model must outlive the oracle. */
class PredictedStepCosts : public StepCostOracle
{
  public:
    explicit PredictedStepCosts(const LatencyModel& model) : model_(&model)
    {}

    double StepMs(DecodePlacement placement, int64_t ctx,
                  int batch) const override;

  private:
    const LatencyModel* model_;
};

}  // namespace predict
}  // namespace llmnpu

#endif  // LLMNPU_PREDICT_STEP_COST_H
