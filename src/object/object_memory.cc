#include "object/object_memory.h"

#include <utility>

namespace gemstone {

namespace {
// Kernel classes occupy a reserved low oid range.
constexpr std::uint64_t kFirstUserOid = 64;
}  // namespace

ObjectMemory::ObjectMemory() : classes_(&symbols_) {
  next_oid_.store(kFirstUserOid);
  std::uint64_t next = 1;
  auto define = [&](std::string_view name, Oid superclass, ObjectFormat fmt) {
    Oid oid(next++);
    auto result = classes_.DefineClass(oid, name, superclass, fmt, {});
    return std::move(result).ValueOrDie();
  };
  kernel_.object = define("Object", kNilOid, ObjectFormat::kNamed);
  kernel_.undefined_object =
      define("UndefinedObject", kernel_.object, ObjectFormat::kNamed);
  kernel_.boolean = define("Boolean", kernel_.object, ObjectFormat::kNamed);
  kernel_.magnitude = define("Magnitude", kernel_.object, ObjectFormat::kNamed);
  kernel_.number = define("Number", kernel_.magnitude, ObjectFormat::kNamed);
  kernel_.integer = define("Integer", kernel_.number, ObjectFormat::kNamed);
  kernel_.real = define("Float", kernel_.number, ObjectFormat::kNamed);
  kernel_.string = define("String", kernel_.magnitude, ObjectFormat::kIndexed);
  kernel_.symbol = define("Symbol", kernel_.string, ObjectFormat::kIndexed);
  kernel_.collection =
      define("Collection", kernel_.object, ObjectFormat::kNamed);
  kernel_.set = define("Set", kernel_.collection, ObjectFormat::kSet);
  kernel_.bag = define("Bag", kernel_.collection, ObjectFormat::kSet);
  kernel_.dictionary =
      define("Dictionary", kernel_.collection, ObjectFormat::kSet);
  kernel_.array = define("Array", kernel_.collection, ObjectFormat::kIndexed);
  kernel_.ordered_collection =
      define("OrderedCollection", kernel_.collection, ObjectFormat::kIndexed);
  kernel_.association =
      define("Association", kernel_.object, ObjectFormat::kNamed);
  kernel_.block = define("Block", kernel_.object, ObjectFormat::kNamed);
  kernel_.metaclass = define("Class", kernel_.object, ObjectFormat::kNamed);
  kernel_.system = define("System", kernel_.object, ObjectFormat::kNamed);
  // The System singleton occupies a fixed reserved oid below the first
  // user identity.
  kernel_.system_object = Oid(62);
  objects_.emplace(kernel_.system_object.raw, std::make_unique<GsObject>(
                                                  kernel_.system_object,
                                                  kernel_.system));
}

Status ObjectMemory::Insert(GsObject object) {
  WriterMutexLock lock(mu_);
  const std::uint64_t key = object.oid().raw;
  if (objects_.count(key) != 0) {
    return Status::AlreadyExists("object already in permanent space: " +
                                 object.oid().ToString());
  }
  objects_.emplace(key, std::make_unique<GsObject>(std::move(object)));
  archived_.erase(key);  // a restored object is no longer archival-only
  return Status::OK();
}

const GsObject* ObjectMemory::Find(Oid oid) const {
  ReaderMutexLock lock(mu_);
  auto it = objects_.find(oid.raw);
  return it == objects_.end() ? nullptr : it->second.get();
}

GsObject* ObjectMemory::FindMutable(Oid oid) {
  ReaderMutexLock lock(mu_);
  auto it = objects_.find(oid.raw);
  return it == objects_.end() ? nullptr : it->second.get();
}

bool ObjectMemory::Contains(Oid oid) const {
  ReaderMutexLock lock(mu_);
  return objects_.count(oid.raw) != 0;
}

Result<GsObject> ObjectMemory::Detach(Oid oid) {
  WriterMutexLock lock(mu_);
  auto it = objects_.find(oid.raw);
  if (it == objects_.end()) {
    return Status::NotFound("cannot archive absent object: " + oid.ToString());
  }
  GsObject detached = std::move(*it->second);
  objects_.erase(it);
  archived_[oid.raw] = true;
  return detached;
}

bool ObjectMemory::IsArchived(Oid oid) const {
  ReaderMutexLock lock(mu_);
  auto it = archived_.find(oid.raw);
  return it != archived_.end() && it->second;
}

std::size_t ObjectMemory::NumObjects() const {
  ReaderMutexLock lock(mu_);
  return objects_.size();
}

std::vector<Oid> ObjectMemory::AllOids() const {
  ReaderMutexLock lock(mu_);
  std::vector<Oid> oids;
  oids.reserve(objects_.size());
  for (const auto& [raw, obj] : objects_) oids.push_back(Oid(raw));
  return oids;
}

Result<Value> ObjectMemory::ReadNamed(Oid oid, SymbolId name,
                                      TxnTime time) const {
  const GsObject* object = Find(oid);
  if (object == nullptr) {
    if (IsArchived(oid)) {
      return Status::Unavailable("object migrated to archival media: " +
                                 oid.ToString());
    }
    return Status::NotFound("no such object: " + oid.ToString());
  }
  const Value* value = object->ReadNamed(name, time);
  if (value == nullptr) {
    return Status::NotFound("element not bound at requested time");
  }
  return *value;
}

Oid ObjectMemory::ClassOf(const Value& value) const {
  switch (value.tag()) {
    case ValueTag::kNil:
      return kernel_.undefined_object;
    case ValueTag::kBoolean:
      return kernel_.boolean;
    case ValueTag::kInteger:
      return kernel_.integer;
    case ValueTag::kFloat:
      return kernel_.real;
    case ValueTag::kString:
      return kernel_.string;
    case ValueTag::kSymbol:
      return kernel_.symbol;
    case ValueTag::kRef: {
      const GsObject* object = Find(value.ref());
      return object == nullptr ? kNilOid : object->class_oid();
    }
    case ValueTag::kHandle:
      return kernel_.block;
  }
  return kNilOid;
}

}  // namespace gemstone
