// Physical and semantic attribute types.
#ifndef METALEAK_DATA_TYPE_H_
#define METALEAK_DATA_TYPE_H_

#include <string>

namespace metaleak {

/// Physical storage type of an attribute's values.
enum class DataType {
  kInt64,
  kDouble,
  kString,
};

/// Semantic role of an attribute in the privacy analysis. The paper's
/// leakage definitions split on this: categorical attributes use exact
/// matching at the same index (Definition 2.2), continuous attributes use
/// an epsilon-ball around the real value (Definition 2.3).
enum class SemanticType {
  kCategorical,
  kContinuous,
};

std::string DataTypeToString(DataType type);
std::string SemanticTypeToString(SemanticType type);

}  // namespace metaleak

#endif  // METALEAK_DATA_TYPE_H_
