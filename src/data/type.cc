#include "data/type.h"

namespace metaleak {

std::string DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

std::string SemanticTypeToString(SemanticType type) {
  switch (type) {
    case SemanticType::kCategorical:
      return "categorical";
    case SemanticType::kContinuous:
      return "continuous";
  }
  return "unknown";
}

}  // namespace metaleak
