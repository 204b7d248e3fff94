#include "model/formats.h"

#include <cstring>

#include "common/json.h"
#include "common/logging.h"

namespace crayfish::model {

namespace {

constexpr char kOnnxMagic[] = "ONNX1";
constexpr char kSavedModelMagic[] = "TFSM1";
constexpr char kTorchMagic[] = "PTCH1";
constexpr char kH5Magic[] = "HDF5x";
constexpr size_t kMagicLen = 5;

// SavedModel exports carry a serialized function library / assets bundle
// whose size is roughly constant and dominates small models (Table 2:
// FFNN SavedModel is 508 KB vs 113 KB for ONNX).
constexpr size_t kSavedModelFunctionLibraryBytes = 380 * 1024;
// H5 writes one aligned object header + attribute block per layer group.
constexpr size_t kH5AttributeBlockBytes = 2048;

void PutMagic(ByteWriter* w, const char* magic) {
  w->PutRaw(reinterpret_cast<const uint8_t*>(magic), kMagicLen);
}

/// Topology of one layer without weights, shared across formats.
void EncodeLayerTopology(const Layer& l, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(l.kind));
  w->PutString(l.name);
  w->PutU32(static_cast<uint32_t>(l.inputs.size()));
  for (int in : l.inputs) w->PutU32(static_cast<uint32_t>(in));
  w->PutI64(l.units);
  w->PutI64(l.kernel);
  w->PutI64(l.stride);
  w->PutU8(l.padding == tensor::Padding::kSame ? 1 : 0);
  // Input layers persist their shape; all other shapes are re-inferred.
  if (l.kind == LayerKind::kInput) {
    w->PutU32(static_cast<uint32_t>(l.output_shape.rank()));
    for (int64_t d : l.output_shape.dims()) w->PutI64(d);
  }
}

crayfish::Status DecodeLayerTopology(ByteReader* r, Layer* l) {
  CRAYFISH_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind > static_cast<uint8_t>(LayerKind::kSoftmax)) {
    return crayfish::Status::Corruption("bad layer kind");
  }
  l->kind = static_cast<LayerKind>(kind);
  CRAYFISH_ASSIGN_OR_RETURN(l->name, r->GetString());
  CRAYFISH_ASSIGN_OR_RETURN(uint32_t nin, r->GetU32());
  l->inputs.clear();
  for (uint32_t i = 0; i < nin; ++i) {
    CRAYFISH_ASSIGN_OR_RETURN(uint32_t idx, r->GetU32());
    l->inputs.push_back(static_cast<int>(idx));
  }
  CRAYFISH_ASSIGN_OR_RETURN(l->units, r->GetI64());
  CRAYFISH_ASSIGN_OR_RETURN(l->kernel, r->GetI64());
  CRAYFISH_ASSIGN_OR_RETURN(l->stride, r->GetI64());
  CRAYFISH_ASSIGN_OR_RETURN(uint8_t same, r->GetU8());
  l->padding = same != 0 ? tensor::Padding::kSame : tensor::Padding::kValid;
  if (l->kind == LayerKind::kInput) {
    CRAYFISH_ASSIGN_OR_RETURN(uint32_t rank, r->GetU32());
    std::vector<int64_t> dims;
    for (uint32_t i = 0; i < rank; ++i) {
      CRAYFISH_ASSIGN_OR_RETURN(int64_t d, r->GetI64());
      dims.push_back(d);
    }
    l->output_shape = tensor::Shape(std::move(dims));
  }
  return crayfish::Status::Ok();
}

/// Encodes every parameter of every layer in graph order. Each format
/// calls this with a different naming convention.
void EncodeWeights(const ModelGraph& graph, bool qualified_names,
                   ByteWriter* w) {
  uint32_t tensor_count = 0;
  for (const Layer& l : graph.layers()) {
    tensor_count += static_cast<uint32_t>(l.params.size());
  }
  w->PutU32(tensor_count);
  for (const Layer& l : graph.layers()) {
    for (const auto& [pname, t] : l.params) {
      w->PutString(qualified_names ? l.name + "." + pname : pname);
      w->PutU32(static_cast<uint32_t>(t.shape().rank()));
      for (int64_t d : t.shape().dims()) w->PutI64(d);
      w->PutF32Array(t.data(), static_cast<size_t>(t.NumElements()));
    }
  }
}

crayfish::Status DecodeWeights(ByteReader* r, bool qualified_names,
                               ModelGraph* graph) {
  CRAYFISH_ASSIGN_OR_RETURN(uint32_t tensor_count, r->GetU32());
  uint32_t consumed = 0;
  for (Layer& l : graph->layers()) {
    for (auto& [pname, t] : l.params) {
      if (consumed >= tensor_count) {
        return crayfish::Status::Corruption("missing weight tensors");
      }
      CRAYFISH_ASSIGN_OR_RETURN(std::string name, r->GetString());
      const std::string expected =
          qualified_names ? l.name + "." + pname : pname;
      if (name != expected) {
        return crayfish::Status::Corruption("weight name mismatch: got " +
                                            name + " want " + expected);
      }
      CRAYFISH_ASSIGN_OR_RETURN(uint32_t rank, r->GetU32());
      std::vector<int64_t> dims;
      for (uint32_t i = 0; i < rank; ++i) {
        CRAYFISH_ASSIGN_OR_RETURN(int64_t d, r->GetI64());
        dims.push_back(d);
      }
      tensor::Shape shape(std::move(dims));
      if (shape != t.shape()) {
        return crayfish::Status::Corruption(
            "weight shape mismatch for " + name + ": " + shape.ToString() +
            " vs " + t.shape().ToString());
      }
      CRAYFISH_ASSIGN_OR_RETURN(std::vector<float> data, r->GetF32Array());
      if (static_cast<int64_t>(data.size()) != shape.NumElements()) {
        return crayfish::Status::Corruption("weight data size mismatch");
      }
      t = tensor::Tensor(shape, std::move(data));
      ++consumed;
    }
  }
  if (consumed != tensor_count) {
    return crayfish::Status::Corruption("extra weight tensors in file");
  }
  return crayfish::Status::Ok();
}

/// Per-layer JSON metadata used by the SavedModel encoding (signature
/// defs / node attributes the TF exporter emits).
std::string LayerMetadataJson(const Layer& l) {
  JsonValue obj = JsonValue::MakeObject();
  obj["op"] = LayerKindName(l.kind);
  obj["name"] = l.name;
  obj["units"] = l.units;
  obj["kernel"] = l.kernel;
  obj["stride"] = l.stride;
  obj["padding"] =
      l.padding == tensor::Padding::kSame ? "SAME" : "VALID";
  JsonValue ins = JsonValue::MakeArray();
  for (int i : l.inputs) ins.Append(i);
  obj["inputs"] = std::move(ins);
  return obj.Dump();
}

void EncodeTopologySection(const ModelGraph& graph, ByteWriter* w) {
  w->PutString(graph.name());
  w->PutU32(static_cast<uint32_t>(graph.layer_count()));
  for (const Layer& l : graph.layers()) EncodeLayerTopology(l, w);
}

crayfish::StatusOr<ModelGraph> DecodeTopologySection(ByteReader* r) {
  CRAYFISH_ASSIGN_OR_RETURN(std::string name, r->GetString());
  CRAYFISH_ASSIGN_OR_RETURN(uint32_t count, r->GetU32());
  ModelGraph graph(name);
  for (uint32_t i = 0; i < count; ++i) {
    Layer l;
    CRAYFISH_RETURN_IF_ERROR(DecodeLayerTopology(r, &l));
    graph.layers().push_back(std::move(l));
  }
  CRAYFISH_RETURN_IF_ERROR(graph.InferShapes());
  return graph;
}

}  // namespace

const char* ModelFormatName(ModelFormat format) {
  switch (format) {
    case ModelFormat::kOnnx:
      return "onnx";
    case ModelFormat::kSavedModel:
      return "savedmodel";
    case ModelFormat::kTorch:
      return "torch";
    case ModelFormat::kH5:
      return "h5";
  }
  return "unknown";
}

const char* ModelFormatExtension(ModelFormat format) {
  switch (format) {
    case ModelFormat::kOnnx:
      return ".onnx";
    case ModelFormat::kSavedModel:
      return ".pb";
    case ModelFormat::kTorch:
      return ".pt";
    case ModelFormat::kH5:
      return ".h5";
  }
  return ".bin";
}

crayfish::StatusOr<ModelFormat> ModelFormatFromName(const std::string& name) {
  if (name == "onnx") return ModelFormat::kOnnx;
  if (name == "savedmodel") return ModelFormat::kSavedModel;
  if (name == "torch") return ModelFormat::kTorch;
  if (name == "h5") return ModelFormat::kH5;
  return crayfish::Status::InvalidArgument("unknown model format: " + name);
}

crayfish::StatusOr<Bytes> Serialize(const ModelGraph& graph,
                                    ModelFormat format) {
  if (!graph.shapes_inferred()) {
    return crayfish::Status::FailedPrecondition(
        "serialize requires InferShapes()");
  }
  ByteWriter w;
  switch (format) {
    case ModelFormat::kOnnx: {
      // Leanest layout: magic, topology, unqualified weights.
      PutMagic(&w, kOnnxMagic);
      EncodeTopologySection(graph, &w);
      EncodeWeights(graph, /*qualified_names=*/false, &w);
      break;
    }
    case ModelFormat::kSavedModel: {
      // MetaGraph layout: magic, topology, per-layer JSON node metadata,
      // a function-library/assets blob, then qualified weights.
      PutMagic(&w, kSavedModelMagic);
      EncodeTopologySection(graph, &w);
      w.PutU32(static_cast<uint32_t>(graph.layer_count()));
      for (const Layer& l : graph.layers()) {
        w.PutString(LayerMetadataJson(l));
      }
      Bytes library(kSavedModelFunctionLibraryBytes, 0x7F);
      w.PutBlock(library.data(), library.size());
      EncodeWeights(graph, /*qualified_names=*/true, &w);
      break;
    }
    case ModelFormat::kTorch: {
      // state_dict layout: magic, small archive header, topology,
      // qualified weights.
      PutMagic(&w, kTorchMagic);
      w.PutString("protocol=2;archive=zipless;producer=crayfish");
      EncodeTopologySection(graph, &w);
      EncodeWeights(graph, /*qualified_names=*/true, &w);
      break;
    }
    case ModelFormat::kH5: {
      // Hierarchical layout: magic, topology, then one group per layer
      // with an aligned attribute block followed by that layer's weights.
      PutMagic(&w, kH5Magic);
      EncodeTopologySection(graph, &w);
      w.PutU32(static_cast<uint32_t>(graph.layer_count()));
      for (const Layer& l : graph.layers()) {
        w.PutString("/model_weights/" + l.name);
        Bytes attr(kH5AttributeBlockBytes, 0x00);
        const std::string meta = LayerMetadataJson(l);
        std::memcpy(attr.data(), meta.data(),
                    std::min(meta.size(), attr.size()));
        w.PutBlock(attr.data(), attr.size());
        w.PutU32(static_cast<uint32_t>(l.params.size()));
        for (const auto& [pname, t] : l.params) {
          w.PutString(pname);
          w.PutU32(static_cast<uint32_t>(t.shape().rank()));
          for (int64_t d : t.shape().dims()) w.PutI64(d);
          w.PutF32Array(t.data(), static_cast<size_t>(t.NumElements()));
        }
      }
      break;
    }
  }
  return w.Release();
}

crayfish::StatusOr<ModelFormat> DetectFormat(const Bytes& bytes) {
  if (bytes.size() < kMagicLen) {
    return crayfish::Status::Corruption("file too short for magic");
  }
  const char* p = reinterpret_cast<const char*>(bytes.data());
  if (std::memcmp(p, kOnnxMagic, kMagicLen) == 0) return ModelFormat::kOnnx;
  if (std::memcmp(p, kSavedModelMagic, kMagicLen) == 0) {
    return ModelFormat::kSavedModel;
  }
  if (std::memcmp(p, kTorchMagic, kMagicLen) == 0) return ModelFormat::kTorch;
  if (std::memcmp(p, kH5Magic, kMagicLen) == 0) return ModelFormat::kH5;
  return crayfish::Status::Corruption("unknown model file magic");
}

crayfish::StatusOr<ModelGraph> Deserialize(const Bytes& bytes) {
  CRAYFISH_ASSIGN_OR_RETURN(ModelFormat format, DetectFormat(bytes));
  ByteReader r(bytes.data() + kMagicLen, bytes.size() - kMagicLen);
  switch (format) {
    case ModelFormat::kOnnx: {
      CRAYFISH_ASSIGN_OR_RETURN(ModelGraph graph, DecodeTopologySection(&r));
      CRAYFISH_RETURN_IF_ERROR(
          DecodeWeights(&r, /*qualified_names=*/false, &graph));
      return graph;
    }
    case ModelFormat::kSavedModel: {
      CRAYFISH_ASSIGN_OR_RETURN(ModelGraph graph, DecodeTopologySection(&r));
      CRAYFISH_ASSIGN_OR_RETURN(uint32_t meta_count, r.GetU32());
      for (uint32_t i = 0; i < meta_count; ++i) {
        CRAYFISH_ASSIGN_OR_RETURN(std::string meta, r.GetString());
        (void)meta;  // Node metadata is advisory; topology is canonical.
      }
      CRAYFISH_ASSIGN_OR_RETURN(Bytes library, r.GetBlock());
      (void)library;
      CRAYFISH_RETURN_IF_ERROR(
          DecodeWeights(&r, /*qualified_names=*/true, &graph));
      return graph;
    }
    case ModelFormat::kTorch: {
      CRAYFISH_ASSIGN_OR_RETURN(std::string header, r.GetString());
      (void)header;
      CRAYFISH_ASSIGN_OR_RETURN(ModelGraph graph, DecodeTopologySection(&r));
      CRAYFISH_RETURN_IF_ERROR(
          DecodeWeights(&r, /*qualified_names=*/true, &graph));
      return graph;
    }
    case ModelFormat::kH5: {
      CRAYFISH_ASSIGN_OR_RETURN(ModelGraph graph, DecodeTopologySection(&r));
      CRAYFISH_ASSIGN_OR_RETURN(uint32_t group_count, r.GetU32());
      if (group_count != graph.layer_count()) {
        return crayfish::Status::Corruption("H5 group count mismatch");
      }
      for (Layer& l : graph.layers()) {
        CRAYFISH_ASSIGN_OR_RETURN(std::string group, r.GetString());
        if (group != "/model_weights/" + l.name) {
          return crayfish::Status::Corruption("H5 group name mismatch");
        }
        CRAYFISH_ASSIGN_OR_RETURN(Bytes attr, r.GetBlock());
        (void)attr;
        CRAYFISH_ASSIGN_OR_RETURN(uint32_t nparams, r.GetU32());
        if (nparams != l.params.size()) {
          return crayfish::Status::Corruption("H5 param count mismatch");
        }
        for (auto& [pname, t] : l.params) {
          CRAYFISH_ASSIGN_OR_RETURN(std::string name, r.GetString());
          if (name != pname) {
            return crayfish::Status::Corruption("H5 param name mismatch");
          }
          CRAYFISH_ASSIGN_OR_RETURN(uint32_t rank, r.GetU32());
          std::vector<int64_t> dims;
          for (uint32_t i = 0; i < rank; ++i) {
            CRAYFISH_ASSIGN_OR_RETURN(int64_t d, r.GetI64());
            dims.push_back(d);
          }
          tensor::Shape shape(std::move(dims));
          if (shape != t.shape()) {
            return crayfish::Status::Corruption("H5 param shape mismatch");
          }
          CRAYFISH_ASSIGN_OR_RETURN(std::vector<float> data,
                                    r.GetF32Array());
          t = tensor::Tensor(shape, std::move(data));
        }
      }
      return graph;
    }
  }
  return crayfish::Status::Internal("unreachable");
}

}  // namespace crayfish::model
