open Net

type origin_attr = Igp | Egp | Incomplete

let origin_rank = function
  | Igp -> 0
  | Egp -> 1
  | Incomplete -> 2

type t = {
  prefix : Prefix.t;
  as_path : As_path.t;
  origin : origin_attr;
  learned_from : Asn.t;
  local_pref : int;
  communities : Community.Set.t;
}

let originate ?(origin = Igp) ?(local_pref = 100)
    ?(communities = Community.Set.empty) ?(as_path = As_path.empty) ~self
    prefix =
  { prefix; as_path; origin; learned_from = self; local_pref; communities }

let origin_as ~self t = As_path.origin_or ~default:self t.as_path

let received ~from t =
  if Asn.equal t.learned_from from then t else { t with learned_from = from }

let advertised_by asn t =
  { t with as_path = As_path.prepend asn t.as_path; learned_from = asn }

let with_communities communities t = { t with communities }

let strip_communities t = { t with communities = Community.Set.empty }

let origin_attr_equal a b =
  match (a, b) with
  | Igp, Igp | Egp, Egp | Incomplete, Incomplete -> true
  | (Igp | Egp | Incomplete), _ -> false

(* Routes are compared on every decision and every export; a route that
   was only re-stamped or re-advertised shares its path and community set
   with the original, so the physical checks settle most calls. *)
let equal a b =
  a == b
  || Asn.equal a.learned_from b.learned_from
     && Int.equal a.local_pref b.local_pref
     && origin_attr_equal a.origin b.origin
     && Prefix.equal a.prefix b.prefix
     && As_path.equal a.as_path b.as_path
     && (a.communities == b.communities
        || Community.Set.equal a.communities b.communities)

let rec filter keep = function
  | [] -> []
  | r :: rest as routes ->
    if keep r then
      let kept = filter keep rest in
      if kept == rest then routes else r :: kept
    else filter keep rest

let pp fmt t =
  Format.fprintf fmt "%a via [%a] from %a lp=%d{%s}" Prefix.pp t.prefix
    As_path.pp t.as_path Asn.pp t.learned_from t.local_pref
    (String.concat ";"
       (List.map Community.to_string (Community.Set.elements t.communities)))

let to_string t = Format.asprintf "%a" pp t
