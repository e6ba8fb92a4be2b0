// Vertical logistic regression over N aligned feature slices.
//
// The utility side of the paper's trade-off: metadata exchange exists to
// make this model trainable across silos. The trainer mirrors the VFL
// dataflow — each party computes partial scores over its own features,
// only per-row partial scores and residuals are exchanged (never raw
// features) — with plain floats standing in for the homomorphic
// encryption of production systems (SecureBoost / BlindFL style).
#ifndef METALEAK_VFL_LOGISTIC_REGRESSION_H_
#define METALEAK_VFL_LOGISTIC_REGRESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "data/value.h"

namespace metaleak {

/// Dense row-major numeric matrix.
struct FeatureMatrix {
  std::vector<double> data;
  size_t num_rows = 0;
  size_t num_features = 0;

  double At(size_t row, size_t col) const {
    return data[row * num_features + col];
  }
};

/// Fits an encoding of a relation into numeric features: numeric
/// attributes are standardized (NULL imputed with the mean), categorical
/// attributes one-hot encoded over the categories seen at fit time
/// (unseen categories at transform time encode as all-zeros).
class FeatureEncoder {
 public:
  FeatureEncoder() = default;

  static Result<FeatureEncoder> Fit(const Relation& relation);

  Result<FeatureMatrix> Transform(const Relation& relation) const;

  size_t num_features() const { return num_features_; }

 private:
  struct AttributeEncoding {
    std::string name;
    bool numeric = true;
    double mean = 0.0;    // numeric: imputation + centering
    double stddev = 1.0;  // numeric: scaling
    std::vector<Value> categories;  // categorical: one-hot order
  };
  std::vector<AttributeEncoding> attributes_;
  size_t num_features_ = 0;
};

struct VflTrainOptions {
  size_t epochs = 200;
  double learning_rate = 0.1;
  double l2 = 1e-4;
  uint64_t seed = 11;
};

/// N-party model: one encoder + weight vector per vertical slice, in the
/// federation's party order.
struct VflModelN {
  std::vector<FeatureEncoder> encoders;
  std::vector<std::vector<double>> weights;
  double bias = 0.0;
  std::vector<double> loss_history;
};

/// Trains vertical logistic regression over N aligned slices with
/// full-batch gradient descent. `labels` (0/1) are index-aligned with the
/// rows of every slice. Each party computes partial scores locally, the
/// label holder combines them and broadcasts residuals; weights are
/// initialized and updated slice-by-slice in party order.
Result<VflModelN> TrainVerticalLogisticRegressionN(
    const std::vector<const Relation*>& slices,
    const std::vector<int>& labels, const VflTrainOptions& options = {});

/// Per-row P(y=1) under an N-party model.
Result<std::vector<double>> PredictProbabilitiesN(
    const VflModelN& model, const std::vector<const Relation*>& slices);

/// Classification accuracy of an N-party model at threshold 0.5.
Result<double> AccuracyN(const VflModelN& model,
                         const std::vector<const Relation*>& slices,
                         const std::vector<int>& labels);

}  // namespace metaleak

#endif  // METALEAK_VFL_LOGISTIC_REGRESSION_H_
