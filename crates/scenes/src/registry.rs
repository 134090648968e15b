//! The open scene registry: descriptors, handles, and the global table.
//!
//! A scene is described by a [`SceneDef`] — display name, source-dataset
//! metadata, a field builder, and the standard evaluation camera. Defs live
//! in a [`SceneRegistry`] behind cheap [`SceneHandle`]s (interned name +
//! `Arc<SceneDef>`). The process-wide [global registry](self::register) is
//! pre-populated with the paper's ten Table-1 scenes plus the showcase
//! families ([`crate::animated`], [`crate::csg`], [`crate::cloud`]); any
//! crate can add more with [`register`] — no enum to extend, no match arms
//! to touch.
//!
//! ```
//! use asdr_scenes::registry::{self, OrbitCamera, SceneDef};
//! use asdr_scenes::procedural::SdfScene;
//!
//! // built-ins are available by name
//! let lego = registry::handle("Lego");
//! let field = lego.build();
//! let cam = lego.camera(32, 32);
//! assert!(field.bounds().intersect(&cam.ray_for_pixel(16, 16)).is_some());
//!
//! // and any crate can register its own scene
//! let def = SceneDef::new("doc-ball", || {
//!     Box::new(SdfScene::new("doc-ball", |p| (p.norm() - 0.5, asdr_math::Rgb::WHITE), 50.0, 0.03))
//! })
//! .dataset("Docs")
//! .camera_spec(OrbitCamera { radius: 2.5, ..OrbitCamera::default() });
//! let ball = registry::register(def).unwrap();
//! assert_eq!(registry::get("doc-ball"), Some(ball));
//! ```

use crate::procedural::{self, SdfScene};
use crate::SceneField;
use asdr_math::{Camera, Rgb, Vec3};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

// ---------------------------------------------------------------------------
// Metadata types
// ---------------------------------------------------------------------------

/// Synthetic or real-world capture (Table 1 "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneKind {
    /// Rendered synthetic dataset.
    Synthetic,
    /// Real-world photographic capture.
    RealWorld,
}

impl fmt::Display for SceneKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SceneKind::Synthetic => f.write_str("Synthetic"),
            SceneKind::RealWorld => f.write_str("Real World"),
        }
    }
}

/// The standard evaluation viewpoint of a scene: an orbit around `center`.
/// Azimuth/elevation vary per scene so each has a distinct ray distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitCamera {
    /// Horizontal angle around the orbit center, degrees.
    pub azimuth_deg: f32,
    /// Vertical angle above the horizon, degrees.
    pub elevation_deg: f32,
    /// Distance from the orbit center.
    pub radius: f32,
    /// Vertical field of view, degrees.
    pub fov_deg: f32,
    /// Point the camera looks at.
    pub center: Vec3,
}

impl Default for OrbitCamera {
    fn default() -> Self {
        OrbitCamera {
            azimuth_deg: 30.0,
            elevation_deg: 20.0,
            radius: 3.2,
            fov_deg: 42.0,
            center: Vec3::ZERO,
        }
    }
}

impl OrbitCamera {
    /// Shorthand for the common case: azimuth, elevation, radius.
    pub fn new(azimuth_deg: f32, elevation_deg: f32, radius: f32) -> Self {
        OrbitCamera { azimuth_deg, elevation_deg, radius, ..Default::default() }
    }

    /// Instantiates the camera at the requested output resolution.
    pub fn camera(&self, width: u32, height: u32) -> Camera {
        Camera::orbit(
            self.center,
            self.radius,
            self.azimuth_deg,
            self.elevation_deg,
            self.fov_deg,
            width,
            height,
        )
    }
}

// ---------------------------------------------------------------------------
// SceneDef
// ---------------------------------------------------------------------------

/// Constructs a scene's field. Boxed so defs can capture arbitrary state
/// (time parameters, CSG trees, noise seeds) — not just fn pointers.
type FieldBuilder = Box<dyn Fn() -> Box<dyn SceneField> + Send + Sync>;

/// A scene descriptor: everything the pipeline needs to fit, render, and
/// report on a scene. Build one with [`SceneDef::new`] plus the chained
/// setters, then hand it to [`register`] (or [`SceneRegistry::register`]).
pub struct SceneDef {
    name: String,
    dataset: String,
    resolution: (u32, u32),
    kind: SceneKind,
    camera: OrbitCamera,
    builder: FieldBuilder,
}

impl fmt::Debug for SceneDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SceneDef")
            .field("name", &self.name)
            .field("dataset", &self.dataset)
            .field("resolution", &self.resolution)
            .field("kind", &self.kind)
            .field("camera", &self.camera)
            .finish_non_exhaustive()
    }
}

impl SceneDef {
    /// Starts a descriptor for `name` with the given field builder and
    /// default metadata (`Custom` dataset, 800×800, synthetic, default
    /// orbit).
    pub fn new<F>(name: impl Into<String>, builder: F) -> Self
    where
        F: Fn() -> Box<dyn SceneField> + Send + Sync + 'static,
    {
        SceneDef {
            name: name.into(),
            dataset: "Custom".to_string(),
            resolution: (800, 800),
            kind: SceneKind::Synthetic,
            camera: OrbitCamera::default(),
            builder: Box::new(builder),
        }
    }

    /// Sets the source-dataset label (Table 1 "Dataset" column).
    #[must_use]
    pub fn dataset(mut self, dataset: impl Into<String>) -> Self {
        self.dataset = dataset.into();
        self
    }

    /// Sets the native evaluation resolution.
    #[must_use]
    pub fn resolution(mut self, width: u32, height: u32) -> Self {
        self.resolution = (width, height);
        self
    }

    /// Sets the synthetic/real-world kind.
    #[must_use]
    pub fn kind(mut self, kind: SceneKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the standard evaluation viewpoint.
    #[must_use]
    pub fn camera_spec(mut self, camera: OrbitCamera) -> Self {
        self.camera = camera;
        self
    }

    /// Scene display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source dataset label.
    pub fn dataset_name(&self) -> &str {
        &self.dataset
    }

    /// Native evaluation resolution (width, height).
    pub fn native_resolution(&self) -> (u32, u32) {
        self.resolution
    }

    /// Synthetic vs real-world.
    pub fn scene_kind(&self) -> SceneKind {
        self.kind
    }

    /// The standard viewpoint specification.
    pub fn camera_orbit(&self) -> OrbitCamera {
        self.camera
    }

    /// Builds a fresh instance of the scene field.
    pub fn build(&self) -> Box<dyn SceneField> {
        (self.builder)()
    }
}

// ---------------------------------------------------------------------------
// SceneHandle
// ---------------------------------------------------------------------------

/// A cheap, copyable-by-clone reference to a registered scene: the interned
/// name plus a shared pointer to the [`SceneDef`]. Equality, ordering, and
/// hashing go by name, so handles work directly as map keys.
#[derive(Clone)]
pub struct SceneHandle {
    name: &'static str,
    def: Arc<SceneDef>,
}

impl SceneHandle {
    /// Scene display name (interned; lives for the process lifetime).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The underlying descriptor.
    pub fn def(&self) -> &SceneDef {
        &self.def
    }

    /// Source dataset label.
    pub fn dataset(&self) -> &str {
        self.def.dataset_name()
    }

    /// Native evaluation resolution (width, height).
    pub fn resolution(&self) -> (u32, u32) {
        self.def.native_resolution()
    }

    /// Synthetic vs real-world.
    pub fn kind(&self) -> SceneKind {
        self.def.scene_kind()
    }

    /// Builds a fresh instance of the scene field.
    pub fn build(&self) -> Box<dyn SceneField> {
        self.def.build()
    }

    /// The standard evaluation camera at the requested output resolution.
    pub fn camera(&self, width: u32, height: u32) -> Camera {
        self.def.camera_orbit().camera(width, height)
    }

    /// Whether two handles point at the *same* [`SceneDef`] instance.
    ///
    /// `==` compares names only (handles are map keys); two registries can
    /// each hold a scene of the same name with different defs. Caches that
    /// key by name use this to detect such aliasing.
    pub fn shares_def(&self, other: &SceneHandle) -> bool {
        Arc::ptr_eq(&self.def, &other.def)
    }
}

impl fmt::Debug for SceneHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SceneHandle({})", self.name)
    }
}

impl fmt::Display for SceneHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl PartialEq for SceneHandle {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.name, other.name) || self.name == other.name
    }
}

impl Eq for SceneHandle {}

impl std::hash::Hash for SceneHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

impl PartialOrd for SceneHandle {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SceneHandle {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name.cmp(other.name)
    }
}

/// Interns a scene name so handles can carry `&'static str`. Names are tiny
/// and registries live for the process lifetime, so the leak is bounded by
/// the set of distinct scene names ever registered.
fn intern(name: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL.get_or_init(|| Mutex::new(HashSet::new())).lock().unwrap();
    match pool.get(name) {
        Some(s) => s,
        None => {
            let s: &'static str = Box::leak(name.to_string().into_boxed_str());
            pool.insert(s);
            s
        }
    }
}

// ---------------------------------------------------------------------------
// SceneRegistry
// ---------------------------------------------------------------------------

/// Errors from [`SceneRegistry::register`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A scene with this (case-insensitive) name already exists.
    DuplicateName(String),
    /// The scene name is empty.
    EmptyName,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName(n) => write!(f, "scene {n:?} is already registered"),
            RegistryError::EmptyName => f.write_str("scene name must not be empty"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// An ordered collection of scene defs with case-insensitive name lookup.
///
/// Most code uses the process-wide instance through the free functions of
/// this module ([`register`], [`get`], [`handle`], [`all`]); owning a
/// `SceneRegistry` directly is useful for tests and tools that need an
/// isolated scene set.
#[derive(Debug, Default)]
pub struct SceneRegistry {
    scenes: Vec<SceneHandle>,
    by_name: HashMap<String, usize>,
}

impl SceneRegistry {
    /// Creates an empty registry.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Creates a registry holding the ten paper scenes (Table 1).
    pub fn with_builtins() -> Self {
        let mut reg = Self::empty();
        for b in &PAPER_SCENES {
            reg.register(b.def()).expect("builtin scene table has unique names");
        }
        reg
    }

    /// Registers a scene, returning its handle.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::DuplicateName`] if a scene with the same
    /// name (ignoring ASCII case) exists, or [`RegistryError::EmptyName`]
    /// for an empty name.
    pub fn register(&mut self, def: SceneDef) -> Result<SceneHandle, RegistryError> {
        if def.name.is_empty() {
            return Err(RegistryError::EmptyName);
        }
        let key = def.name.to_ascii_lowercase();
        if self.by_name.contains_key(&key) {
            return Err(RegistryError::DuplicateName(def.name.clone()));
        }
        let handle = SceneHandle { name: intern(&def.name), def: Arc::new(def) };
        self.by_name.insert(key, self.scenes.len());
        self.scenes.push(handle.clone());
        Ok(handle)
    }

    /// Looks a scene up by case-insensitive name.
    pub fn get(&self, name: &str) -> Option<SceneHandle> {
        self.by_name.get(&name.to_ascii_lowercase()).map(|&i| self.scenes[i].clone())
    }

    /// All registered scenes, in registration order.
    pub fn all(&self) -> Vec<SceneHandle> {
        self.scenes.clone()
    }

    /// Number of registered scenes.
    pub fn len(&self) -> usize {
        self.scenes.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.scenes.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The builtin table: the ten Table-1 scenes in one place
// ---------------------------------------------------------------------------

/// One row of the builtin-scene table.
struct PaperScene {
    name: &'static str,
    dataset: &'static str,
    resolution: (u32, u32),
    kind: SceneKind,
    field: fn(Vec3) -> (f32, Rgb),
    camera: (f32, f32, f32), // azimuth, elevation, radius
}

impl PaperScene {
    fn def(&self) -> SceneDef {
        let (name, field) = (self.name, self.field);
        SceneDef::new(name, move || Box::new(SdfScene::new(name, field, 50.0, 0.03)))
            .dataset(self.dataset)
            .resolution(self.resolution.0, self.resolution.1)
            .kind(self.kind)
            .camera_spec(OrbitCamera::new(self.camera.0, self.camera.1, self.camera.2))
    }
}

use SceneKind::{RealWorld, Synthetic};

/// Table 1 of the paper, in the order it lists the scenes.
const PAPER_SCENES: [PaperScene; 10] = [
    PaperScene {
        name: "Mic",
        dataset: "Synthetic-NeRF",
        resolution: (800, 800),
        kind: Synthetic,
        field: procedural::mic,
        camera: (-30.0, 15.0, 3.0),
    },
    PaperScene {
        name: "Hotdog",
        dataset: "Synthetic-NeRF",
        resolution: (800, 800),
        kind: Synthetic,
        field: procedural::hotdog,
        camera: (0.0, 40.0, 3.2),
    },
    PaperScene {
        name: "Ship",
        dataset: "Synthetic-NeRF",
        resolution: (800, 800),
        kind: Synthetic,
        field: procedural::ship,
        camera: (60.0, 20.0, 3.4),
    },
    PaperScene {
        name: "Chair",
        dataset: "Synthetic-NeRF",
        resolution: (800, 800),
        kind: Synthetic,
        field: procedural::chair,
        camera: (15.0, 18.0, 3.2),
    },
    PaperScene {
        name: "Ficus",
        dataset: "Synthetic-NeRF",
        resolution: (800, 800),
        kind: Synthetic,
        field: procedural::ficus,
        camera: (-50.0, 12.0, 3.0),
    },
    PaperScene {
        name: "Lego",
        dataset: "Synthetic-NeRF",
        resolution: (800, 800),
        kind: Synthetic,
        field: procedural::lego,
        camera: (35.0, 25.0, 3.2),
    },
    PaperScene {
        name: "Palace",
        dataset: "Synthetic-NSVF",
        resolution: (800, 800),
        kind: Synthetic,
        field: procedural::palace,
        camera: (45.0, 22.0, 3.6),
    },
    PaperScene {
        name: "Fountain",
        dataset: "BlendedMVS",
        resolution: (768, 576),
        kind: RealWorld,
        field: procedural::fountain,
        camera: (-20.0, 18.0, 3.4),
    },
    PaperScene {
        name: "Family",
        dataset: "Tanks&Temples",
        resolution: (1920, 1080),
        kind: RealWorld,
        field: procedural::family,
        camera: (5.0, 10.0, 3.4),
    },
    PaperScene {
        name: "Fox",
        dataset: "Instant-NGP",
        resolution: (1080, 1920),
        kind: RealWorld,
        field: procedural::fox,
        camera: (25.0, 8.0, 3.0),
    },
];

/// The five scenes used by the performance figures (Figs. 17–19, 22, 25–27).
const PERF_SCENE_NAMES: [&str; 5] = ["Palace", "Fountain", "Family", "Fox", "Mic"];

// ---------------------------------------------------------------------------
// The process-wide registry
// ---------------------------------------------------------------------------

fn global() -> &'static RwLock<SceneRegistry> {
    static GLOBAL: OnceLock<RwLock<SceneRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let mut reg = SceneRegistry::with_builtins();
        // the showcase families: one file + one register() call each
        reg.register(crate::animated::scene_def()).expect("animated scene name unique");
        reg.register(crate::csg::scene_def()).expect("csg scene name unique");
        reg.register(crate::cloud::scene_def()).expect("cloud scene name unique");
        RwLock::new(reg)
    })
}

/// Registers a scene in the process-wide registry.
///
/// # Errors
///
/// See [`SceneRegistry::register`].
pub fn register(def: SceneDef) -> Result<SceneHandle, RegistryError> {
    global().write().unwrap().register(def)
}

/// Looks a scene up by case-insensitive name in the process-wide registry.
pub fn get(name: &str) -> Option<SceneHandle> {
    global().read().unwrap().get(name)
}

/// Like [`get`], but panics with the known scene names on a miss — for call
/// sites where the name is a literal.
///
/// # Panics
///
/// Panics if no scene with that name is registered.
pub fn handle(name: &str) -> SceneHandle {
    get(name).unwrap_or_else(|| {
        let known: Vec<&str> = all().iter().map(|h| h.name()).collect();
        panic!("unknown scene {name:?}; registered: {known:?}")
    })
}

/// Every registered scene, in registration order (paper scenes first).
pub fn all() -> Vec<SceneHandle> {
    global().read().unwrap().all()
}

/// The ten Table-1 paper scenes, in the order the paper lists them.
pub fn paper_scenes() -> Vec<SceneHandle> {
    PAPER_SCENES.iter().map(|b| handle(b.name)).collect()
}

/// The five-scene subset the paper's performance figures use.
pub fn perf_scenes() -> Vec<SceneHandle> {
    PERF_SCENE_NAMES.iter().map(|n| handle(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_metadata_matches_paper() {
        assert_eq!(handle("Lego").dataset(), "Synthetic-NeRF");
        assert_eq!(handle("Lego").resolution(), (800, 800));
        assert_eq!(handle("Palace").dataset(), "Synthetic-NSVF");
        assert_eq!(handle("Fountain").resolution(), (768, 576));
        assert_eq!(handle("Family").resolution(), (1920, 1080));
        assert_eq!(handle("Fox").resolution(), (1080, 1920));
        assert_eq!(handle("Fox").kind(), SceneKind::RealWorld);
        assert_eq!(handle("Mic").kind(), SceneKind::Synthetic);
    }

    #[test]
    fn seven_synthetic_three_real() {
        let synth = paper_scenes().iter().filter(|s| s.kind() == SceneKind::Synthetic).count();
        assert_eq!(synth, 7);
        assert_eq!(paper_scenes().len() - synth, 3);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        for s in all() {
            assert_eq!(get(s.name()), Some(s.clone()));
            assert_eq!(get(&s.name().to_lowercase()), Some(s.clone()));
            assert_eq!(get(&s.name().to_uppercase()), Some(s));
        }
        assert_eq!(get("nonexistent"), None);
    }

    #[test]
    fn all_scenes_buildable() {
        for s in all() {
            let f = s.build();
            // camera looks at content: center ray must enter the bounds
            let cam = s.camera(16, 16);
            let ray = cam.ray_for_pixel(8, 8);
            assert!(f.bounds().intersect(&ray).is_some(), "{s}: camera misses scene");
        }
    }

    #[test]
    fn perf_subset_is_five_distinct() {
        let mut v = perf_scenes();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn registry_is_open() {
        let h = register(
            SceneDef::new("registry-test-ball", || {
                Box::new(SdfScene::new(
                    "registry-test-ball",
                    |p| (p.norm() - 0.4, Rgb::new(0.9, 0.2, 0.2)),
                    50.0,
                    0.03,
                ))
            })
            .dataset("UnitTest"),
        )
        .unwrap();
        assert_eq!(get("registry-test-ball"), Some(h.clone()));
        assert!(all().contains(&h));
        // duplicate registration (any case) is rejected
        let dup = register(SceneDef::new("Registry-Test-Ball", || {
            Box::new(SdfScene::new("x", |p| (p.norm() - 0.4, Rgb::WHITE), 50.0, 0.03))
        }));
        assert!(matches!(dup, Err(RegistryError::DuplicateName(_))));
    }

    #[test]
    fn empty_names_are_rejected() {
        let mut reg = SceneRegistry::empty();
        let err = reg.register(SceneDef::new("", || {
            Box::new(SdfScene::new("x", |p| (p.norm() - 0.4, Rgb::WHITE), 50.0, 0.03))
        }));
        assert_eq!(err.unwrap_err(), RegistryError::EmptyName);
        assert!(reg.is_empty());
    }

    #[test]
    fn isolated_registries_do_not_touch_the_global() {
        let reg = SceneRegistry::with_builtins();
        assert_eq!(reg.len(), 10);
        assert!(reg.get("Pulse").is_none(), "builtin-only registry has no zoo scenes");
        assert!(get("Pulse").is_some(), "global registry has the zoo scenes");
    }
}
